package experiments

import (
	"fmt"
	"sort"
)

// RunConfig selects scale, seed, parallelism, and observability for one
// registry run. The zero value is full scale, seed 0, one worker per CPU,
// metrics off.
type RunConfig struct {
	// Quick selects the reduced test/bench scale.
	Quick bool
	// Seed drives every RNG stream.
	Seed int64
	// Workers bounds the leg worker pool (0 = one per CPU, 1 = serial);
	// output is byte-identical for any value.
	Workers int
	// Metrics enables the observability registry; fig4, fig7, ycsbmix and
	// loadsweep attach per-leg snapshots to the Result.
	Metrics bool
	// TraceIOs bounds per-IO span capture (0 = off, <0 = unlimited).
	TraceIOs int
	// Faults overrides the failslow experiment's fault schedule (a
	// faults.ParseSchedule config string; empty = built-in scenario). It
	// must pass CheckFaults.
	Faults string
	// Rates overrides the loadsweep experiment's offered-load multipliers
	// (empty = the built-in 0.2→1.5 sweep). Each must pass CheckSweepRate.
	Rates []float64
}

// options maps the config onto macro-experiment Options.
func (c RunConfig) options() Options {
	o := DefaultOptions()
	if c.Quick {
		o = QuickOptions()
	}
	o.Seed = c.Seed
	o.Workers = c.Workers
	o.Metrics = c.Metrics
	o.TraceIOs = c.TraceIOs
	o.Faults = c.Faults
	o.Rates = c.Rates
	return o
}

// runners maps experiment ids to their runners. Each regenerates one table
// or figure of the paper (see DESIGN.md's per-experiment index).
var runners = map[string]func(RunConfig) *Result{
	"table1": func(c RunConfig) *Result { return Table1(c.options()) },
	"fig3": func(c RunConfig) *Result {
		o := DefaultFig3Options()
		if c.Quick {
			o = QuickFig3Options()
		}
		o.Seed = c.Seed
		return &Fig3(o).Result
	},
	"fig4": func(c RunConfig) *Result {
		o := DefaultFig4Options()
		if c.Quick {
			o = QuickFig4Options()
		}
		o.Seed = c.Seed
		o.Workers = c.Workers
		o.Metrics = c.Metrics
		o.TraceIOs = c.TraceIOs
		return Fig4(o)
	},
	"fig5": func(c RunConfig) *Result { return Fig5(c.options()) },
	"fig6": func(c RunConfig) *Result { return Fig6(c.options()) },
	"fig7": func(c RunConfig) *Result { return Fig7(c.options()) },
	"fig8": func(c RunConfig) *Result {
		o := DefaultFig8Options()
		if c.Quick {
			o = QuickFig8Options()
		}
		o.Seed = c.Seed
		o.Workers = c.Workers
		return Fig8(o)
	},
	"fig9": func(c RunConfig) *Result {
		o := DefaultFig9Options()
		if c.Quick {
			o = QuickFig9Options()
		}
		o.Seed = c.Seed
		res, _ := Fig9(o)
		return res
	},
	"fig10":     func(c RunConfig) *Result { return Fig10(c.options()) },
	"fig11":     func(c RunConfig) *Result { return Fig11(c.options()) },
	"fig12":     func(c RunConfig) *Result { return Fig12(c.options()) },
	"fig13":     func(c RunConfig) *Result { return &Fig13(c.options()).Result },
	"allinone":  func(c RunConfig) *Result { return AllInOne(c.options()) },
	"writes":    func(c RunConfig) *Result { return Writes(c.options()) },
	"failslow":  func(c RunConfig) *Result { return Failslow(c.options()) },
	"ycsbmix":   func(c RunConfig) *Result { return YCSBMix(c.options()) },
	"loadsweep": func(c RunConfig) *Result { return LoadSweep(c.options()) },
}

// IDs lists the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(runners))
	for id := range runners { //mapiter:sorted
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run regenerates one experiment by id under the given config.
func Run(id string, cfg RunConfig) (*Result, error) {
	fn, ok := runners[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	for _, m := range cfg.Rates {
		if err := CheckSweepRate(m); err != nil {
			return nil, fmt.Errorf("experiments: rates: %w", err)
		}
	}
	if err := CheckFaults(cfg.Faults, cfg.Quick); err != nil {
		return nil, fmt.Errorf("experiments: faults: %w", err)
	}
	return fn(cfg), nil
}
