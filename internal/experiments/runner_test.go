package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestRunLegsOrderAndClamp checks the pool mechanics directly: every leg
// runs exactly once for any worker count, including pools larger than the
// leg list and the serial reference path.
func TestRunLegsOrderAndClamp(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := make([]int, 5)
		var ls legs
		for i := 0; i < 5; i++ {
			i := i
			ls.add(func(*legArena) { got[i]++ })
		}
		runLegs(workers, ls)
		for i, n := range got {
			if n != 1 {
				t.Fatalf("workers=%d: leg %d ran %d times", workers, i, n)
			}
		}
	}
}

// TestRunLegsPanicPropagates: a panicking leg must not deadlock the pool,
// and the panic must surface on the caller's goroutine.
func TestRunLegsPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panic swallowed", workers)
				}
			}()
			runLegs(workers, legs{
				func(*legArena) {},
				func(*legArena) { panic("leg boom") },
				func(*legArena) {},
			})
		}()
	}
}

// TestFig4ParallelDeterminism is the tentpole's contract: the same Fig4
// run on one worker (the serial reference schedule) and on eight workers
// must produce deeply-equal results and byte-identical renders. Legs own
// their engines and RNGs, so the worker count can only change wall-clock
// time, never output.
func TestFig4ParallelDeterminism(t *testing.T) {
	opt := QuickFig4Options()
	opt.Duration = 2 * time.Second

	serial := opt
	serial.Workers = 1
	parallel := opt
	parallel.Workers = 8

	a := Fig4(serial)
	b := Fig4(parallel)
	if a.String() != b.String() {
		t.Fatalf("Fig4 render differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Fatal("Fig4 series differ between Workers=1 and Workers=8")
	}
}

// TestConvertedExperimentsParallelDeterminism runs every runLegs-converted
// experiment at tiny scale twice — serial vs a deliberately oversubscribed
// pool — and requires byte-identical renders.
func TestConvertedExperimentsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every converted experiment twice")
	}
	runs := []struct {
		name string
		fn   func(Options) string
	}{
		{"fig5", func(o Options) string { return Fig5(o).String() }},
		{"fig6", func(o Options) string { return Fig6(o).String() }},
		{"fig7", func(o Options) string { return Fig7(o).String() }},
		{"fig10", func(o Options) string { return Fig10(o).String() }},
		{"fig11", func(o Options) string { return Fig11(o).String() }},
		{"fig12", func(o Options) string { return Fig12(o).String() }},
		{"fig13", func(o Options) string { return Fig13(o).String() }},
		{"failslow", func(o Options) string { return Failslow(o).String() }},
		{"ycsbmix", func(o Options) string { return YCSBMix(o).String() }},
		{"allinone", func(o Options) string { return AllInOne(o).String() }},
		{"writes", func(o Options) string { return Writes(o).String() }},
	}
	for _, run := range runs {
		run := run
		t.Run(run.name, func(t *testing.T) {
			t.Parallel()
			opt := tinyOptions()
			opt.Duration = 2 * time.Second
			serial := opt
			serial.Workers = 1
			parallel := opt
			parallel.Workers = 8
			if a, b := run.fn(serial), run.fn(parallel); a != b {
				t.Errorf("%s render differs between Workers=1 and Workers=8", run.name)
			}
		})
	}
}
