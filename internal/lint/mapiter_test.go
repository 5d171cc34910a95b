package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestNoMapIterationOnSimulationPaths is the determinism sweep: the
// simulation packages — every internal package but this one — must not
// range over maps without an explicit //mapiter:sorted justification. A
// failure here means a code path whose behavior can differ between two runs
// of the same seed.
func TestNoMapIterationOnSimulationPaths(t *testing.T) {
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() && e.Name() != "lint" {
			dirs = append(dirs, filepath.Join("..", e.Name()))
		}
	}
	if len(dirs) < 20 {
		t.Fatalf("found %d simulation packages, want at least 20: %v", len(dirs), dirs)
	}
	findings, err := CheckMapIter(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s", f.Pos, f.Text)
	}
}

// TestCheckerSeesThisPackage guards the checker itself against silently
// going blind (e.g. a parse-filter change skipping every file): it must
// still detect a plain map range in a fixture.
func TestCheckerSeesThisPackage(t *testing.T) {
	findings, err := CheckMapIter([]string{"testdata/fixture"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("fixture findings = %d, want exactly 1: %v", len(findings), findings)
	}
}
