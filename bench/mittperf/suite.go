package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"mittos/internal/experiments"
)

// paper-suite: what users run (mittbench -run all) — every registered
// experiment at quick scale on one worker, except loadsweep, whose shape
// the fleet workloads already cover. At the dev seed each rendering must
// match its golden file byte for byte.

// goldenDir holds the experiments' golden renderings, relative to the
// repository root.
const goldenDir = "internal/experiments/testdata/golden"

func suiteIDs() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if id != "loadsweep" {
			ids = append(ids, id)
		}
	}
	return ids
}

// suiteStartups is how many times a pass starts a process that loads the
// experiments package: the suite's set-up, which every mittbench
// invocation pays before its first experiment (exec, runtime start, and
// package initialisation, which builds the shared disk profile).
const suiteStartups = 16

func suiteLegs(seed, devSeed int64) []leg {
	ls := []leg{{name: "start-up", setup: true, build: func(*tracer) legRunner {
		l := &startupLeg{}
		self, err := os.Executable()
		if err != nil {
			l.err = err
			return l
		}
		for i := 0; i < suiteStartups; i++ {
			t0 := time.Now()
			if err := exec.Command(self, "-startup").Run(); err != nil {
				l.err = fmt.Errorf("start-up probe: %w", err)
				return l
			}
			l.samples = append(l.samples, time.Since(t0))
		}
		return l
	}}}
	for _, id := range suiteIDs() {
		id := id
		ls = append(ls, leg{name: id, build: func(*tracer) legRunner {
			return &suiteLeg{id: id, seed: seed, golden: seed == devSeed}
		}})
	}
	return ls
}

// startupLeg is the suite's set-up leg: it has no run phase, and reports
// each process start-up as its own set-up sample.
type startupLeg struct {
	samples []time.Duration
	err     error
}

func (l *startupLeg) run(*tracer, time.Duration)    {}
func (l *startupLeg) result() legOut                { return legOut{err: l.err} }
func (l *startupLeg) setupSamples() []time.Duration { return l.samples }

type suiteLeg struct {
	id     string
	seed   int64
	golden bool
	out    string
	err    error
}

func (l *suiteLeg) run(t *tracer, _ time.Duration) {
	t.beginDetail(spanExperiment, l.id, 0)
	res, err := experiments.Run(l.id, experiments.RunConfig{Quick: true, Seed: l.seed, Workers: 1})
	t.end()
	if err != nil {
		l.err = err
		return
	}
	l.out = res.String()
}

func (l *suiteLeg) result() legOut {
	o := legOut{issued: 1, finished: 1}
	if l.err != nil || l.out == "" {
		o.errors, o.failed = 1, 1
		return o
	}
	d := newDigest()
	d.addString(l.out)
	o.digest = d.sum()
	if l.golden {
		want, err := os.ReadFile(filepath.Join(goldenDir, l.id+".txt"))
		if err != nil {
			o.err = err
		} else if string(want) != l.out {
			o.err = fmt.Errorf("%s: output differs from its golden file", l.id)
		}
	}
	return o
}
