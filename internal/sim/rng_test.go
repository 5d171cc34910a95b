package sim

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42, "disk")
	b := NewRNG(42, "disk")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed,name) produced different streams")
		}
	}
}

func TestRNGNameSeparation(t *testing.T) {
	a := NewRNG(42, "disk")
	b := NewRNG(42, "ssd")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("different names produced identical streams")
	}
}

func TestRNGFork(t *testing.T) {
	a := NewRNG(1, "root").Fork("child")
	b := NewRNG(1, "root").Fork("child")
	if a.Float64() != b.Float64() {
		t.Fatal("forked streams not deterministic")
	}
}

func TestDurationBounds(t *testing.T) {
	g := NewRNG(7, "t")
	for i := 0; i < 1000; i++ {
		d := g.Duration(time.Millisecond)
		if d < 0 || d >= time.Millisecond {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if g.Duration(0) != 0 {
		t.Fatal("Duration(0) should be 0")
	}
	if g.Duration(-time.Second) != 0 {
		t.Fatal("Duration(negative) should be 0")
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(11, "exp")
	mean := 10 * time.Millisecond
	var sum time.Duration
	n := 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(mean)
	}
	got := float64(sum) / float64(n)
	want := float64(mean)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("Exp mean = %v, want ≈ %v", time.Duration(got), mean)
	}
	if g.Exp(0) != 0 {
		t.Fatal("Exp(0) should be 0")
	}
}

func TestNormalDurationNonNegative(t *testing.T) {
	g := NewRNG(3, "norm")
	for i := 0; i < 1000; i++ {
		if d := g.NormalDuration(time.Millisecond, 5*time.Millisecond); d < 0 {
			t.Fatalf("NormalDuration returned negative %v", d)
		}
	}
}

func TestParetoBounds(t *testing.T) {
	g := NewRNG(5, "pareto")
	for i := 0; i < 5000; i++ {
		v := g.Pareto(1.0, 1.5, 100.0)
		if v < 1.0 || v > 100.0 {
			t.Fatalf("Pareto out of [1,100]: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// With alpha=1.1 a nontrivial fraction of mass should exceed 5×xm.
	g := NewRNG(5, "pareto2")
	over := 0
	n := 10000
	for i := 0; i < n; i++ {
		if g.Pareto(1.0, 1.1, 1000.0) > 5.0 {
			over++
		}
	}
	frac := float64(over) / float64(n)
	if frac < 0.05 || frac > 0.5 {
		t.Fatalf("tail fraction %v implausible for Pareto(1.1)", frac)
	}
}

func TestBoolProbability(t *testing.T) {
	g := NewRNG(9, "bool")
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) hit rate %v", frac)
	}
	if g.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !g.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestZipfInRangeProperty(t *testing.T) {
	g := NewRNG(13, "zipf")
	z := NewZipf(g, 1000, 0.99)
	f := func(_ uint8) bool {
		v := z.Next()
		return v >= 0 && v < 1000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewRNG(13, "zipfskew")
	z := NewZipf(g, 10000, 0.99)
	n := 50000
	hot := 0
	for i := 0; i < n; i++ {
		if z.Next() < 100 { // top 1% of keys
			hot++
		}
	}
	frac := float64(hot) / float64(n)
	// YCSB zipfian(0.99): top 1% of a 10k key space draws well over a third
	// of accesses.
	if frac < 0.3 {
		t.Fatalf("top-1%% key fraction = %v, want skewed (>0.3)", frac)
	}
}

func TestZipfPanics(t *testing.T) {
	g := NewRNG(1, "z")
	for _, fn := range []func(){
		func() { NewZipf(g, 0, 0.99) },
		func() { NewZipf(g, 10, 0) },
		func() { NewZipf(g, 10, 1) },
		func() { NewZipf(g, 10, math.NaN()) }, // NaN would never hit the ζ memo
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestZetaMemoBitExact pins every memoized ζ(n, θ) — on the call that fills
// the memo and on the one that hits it — to a fresh left-to-right sum, bit
// for bit: the YCSB key stream depends on the exact value.
func TestZetaMemoBitExact(t *testing.T) {
	for _, theta := range []float64{0.5, 0.99} {
		for _, n := range []int64{1, 2, 100000, 200000} {
			want := 0.0
			for i := int64(1); i <= n; i++ {
				want += 1 / math.Pow(float64(i), theta)
			}
			for call := 0; call < 2; call++ {
				if got := zeta(n, theta); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("zeta(%d, %v) call %d = %v, fresh sum %v", n, theta, call, got, want)
				}
			}
		}
	}
}

// TestZipfDrawsColdAndWarmMemo checks that a sampler built while the memo is
// cold and one built from the memoized ζ draw the same keys.
func TestZipfDrawsColdAndWarmMemo(t *testing.T) {
	draws := func() []int64 {
		z := NewZipf(NewRNG(5, "zipf-memo"), 100000, 0.99)
		out := make([]int64, 5000)
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	zetaMemo.Lock()
	zetaMemo.m = nil
	zetaMemo.Unlock()
	cold := draws()
	zetaMemo.Lock()
	_, ok := zetaMemo.m[zetaKey{100000, 0.99}]
	zetaMemo.Unlock()
	if !ok {
		t.Fatal("NewZipf did not memoize ζ(100000, 0.99)")
	}
	if warm := draws(); !slices.Equal(cold, warm) {
		t.Fatal("zipf draws differ between a cold and a warm ζ memo")
	}
}

// zipfNextPerDraw is Zipf.Next as it was while it evaluated 1 + 0.5^θ on
// every draw.
func zipfNextPerDraw(z *Zipf, theta float64) int64 {
	u := z.source.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, theta) {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// TestZipfRank1Hoisted checks that Next, with its rank-1 cutoff computed
// once in NewZipf, draws the same keys as the per-draw formula.
func TestZipfRank1Hoisted(t *testing.T) {
	for _, theta := range []float64{0.5, 0.99} {
		for _, n := range []int64{1, 2, 100000, 200000} {
			z := NewZipf(NewRNG(11, "zipf-rank1"), n, theta)
			ref := NewZipf(NewRNG(11, "zipf-rank1"), n, theta)
			for i := 0; i < 100_000; i++ {
				if got, want := z.Next(), zipfNextPerDraw(ref, theta); got != want {
					t.Fatalf("n=%d θ=%v draw %d: Next %d, per-draw formula %d", n, theta, i, got, want)
				}
			}
		}
	}
}

// TestZipfMemoConcurrent builds samplers from several goroutines at once,
// with shared and per-goroutine key spaces and two skews, the way leg
// set-up on parallel workers does; run it under -race.
func TestZipfMemoConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				n := int64(1000 + 1000*(i%3))
				if i%2 == 1 {
					n += int64(g) // a key space only this goroutine uses
				}
				theta := []float64{0.5, 0.99}[i%2]
				z := NewZipf(NewRNG(int64(g), "zipf-race"), n, theta)
				if z.zetan != zetaStatic(n, theta) {
					t.Errorf("goroutine %d: ζ(%d, %v) = %v, want %v", g, n, theta, z.zetan, zetaStatic(n, theta))
				}
				if k := z.Next(); k < 0 || k >= n {
					t.Errorf("goroutine %d: draw %d outside [0, %d)", g, k, n)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestParetoAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alpha<=0")
		}
	}()
	NewRNG(1, "p").Pareto(1, 0, 10)
}
