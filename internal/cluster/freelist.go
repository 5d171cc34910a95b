package cluster

// freelist is the package's one acquire/release idiom for pooled contexts:
// a single-threaded LIFO stack of recycled objects. The zero value is ready.
type freelist[T any] struct{ free []*T }

// get pops a recycled object, else builds one with mk (new(T) if nil).
func (f *freelist[T]) get(mk func() *T) *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	if mk == nil {
		return new(T)
	}
	return mk()
}

// put recycles x; the caller must not touch it afterwards.
func (f *freelist[T]) put(x *T) { f.free = append(f.free, x) }
