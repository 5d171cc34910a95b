package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden-output regression tests: the quick-mode render of every experiment
// is checked byte-for-byte against testdata/golden/<id>.txt. The files are
// the repo's determinism contract — any change to simulation-visible code
// paths (RNG draws, event ordering, float formatting) shows up here as a
// diff, reviewable in the commit that caused it.
//
// Regenerate with:
//
//	go test ./internal/experiments -run Golden -update
//
// The -golden-workers flag pins the leg worker pool; CI runs the suite at
// 1 and 8 workers and both must match the same files.
var (
	updateGolden  = flag.Bool("update", false, "rewrite testdata/golden from this run's output")
	goldenWorkers = flag.Int("golden-workers", 0, "leg worker pool for golden runs (0 = one per CPU)")
)

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	path := goldenPath(id)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	t.Errorf("%s output drifted from %s (regenerate with -update if intended):\n%s",
		id, path, firstDiff(string(want), got))
}

// firstDiff renders the first differing line with context.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, w, g)
		}
	}
	return "(outputs differ only in length)"
}

// TestGolden locks the quick-mode render of every registered experiment.
func TestGolden(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, RunConfig{Quick: true, Seed: 1, Workers: *goldenWorkers})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, id, res.String())
		})
	}
}

// TestGoldenMetricsInvariant re-runs fig4 with the observability layer on
// (full span tracing included) and requires the rendered output to match
// the same golden file: metrics must never perturb the simulation.
func TestGoldenMetricsInvariant(t *testing.T) {
	res, err := Run("fig4", RunConfig{Quick: true, Seed: 1, Workers: *goldenWorkers,
		Metrics: true, TraceIOs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		t.Skip("golden written by TestGolden")
	}
	checkGolden(t, "fig4", res.String())
	if len(res.Metrics) == 0 {
		t.Fatal("fig4 with Metrics on attached no snapshots")
	}
}

// TestMetricsJSONIdenticalAcrossWorkers requires fig4's metrics snapshots,
// as mittbench -metrics-json writes them, to be byte-identical at one and
// eight leg workers: a snapshot reports simulated state only, never the
// state of a worker arena's host-side pools, which depends on what ran on
// that worker before.
func TestMetricsJSONIdenticalAcrossWorkers(t *testing.T) {
	var docs [][]byte
	for _, workers := range []int{1, 8} {
		res, err := Run("fig4", RunConfig{Quick: true, Seed: 1, Workers: workers, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.MarshalIndent(res.Metrics, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, j)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		a, b := strings.Split(string(docs[0]), "\n"), strings.Split(string(docs[1]), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("metrics JSON differs at line %d: %s at 1 worker, %s at 8", i+1, a[i], b[i])
			}
		}
		t.Fatalf("metrics JSON differs in length: %d lines at 1 worker, %d at 8", len(a), len(b))
	}
}

// TestGoldenYCSBMixMetricsInvariant is the write-path twin: ycsbmix with full
// span tracing must render byte-identically to its golden — the put-stage
// histograms and span capture never perturb the simulation.
func TestGoldenYCSBMixMetricsInvariant(t *testing.T) {
	res, err := Run("ycsbmix", RunConfig{Quick: true, Seed: 1, Workers: *goldenWorkers,
		Metrics: true, TraceIOs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		t.Skip("golden written by TestGolden")
	}
	checkGolden(t, "ycsbmix", res.String())
	if len(res.Metrics) == 0 {
		t.Fatal("ycsbmix with Metrics on attached no snapshots")
	}
}
