package sim

// Freelist is the one acquire/release idiom for pooled per-IO contexts: a
// single-threaded LIFO stack of recycled objects. The zero value is ready.
//
// A pooled type pairs it with a package-level constructor that binds the
// object's callbacks once, and its owner stores the owner pointer at Get,
// so one type serves any number of owners and a steady-state Get allocates
// nothing.
type Freelist[T any] struct {
	free []*T
	made int
}

// Get pops a recycled object, else builds one with mk (new(T) if nil).
func (f *Freelist[T]) Get(mk func() *T) *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	f.made++
	if mk == nil {
		return new(T)
	}
	return mk()
}

// Put recycles x; the caller must not touch it afterwards.
func (f *Freelist[T]) Put(x *T) { f.free = append(f.free, x) }

// InUse returns how many of the objects Get built are not back on the free
// list. Once every pooled IO has ended it reads 0; a leaked object leaves it
// above 0 and a double Put drives it below.
func (f *Freelist[T]) InUse() int { return f.made - len(f.free) }
