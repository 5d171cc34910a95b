package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

func TestParseRates(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
		ok   bool
	}{
		{"", nil, true},
		{"0.5,0.9,1.1", []float64{0.5, 0.9, 1.1}, true},
		{" 0.01 , 3 ", []float64{0.01, 3}, true},
		{"NaN", nil, false},
		{"Inf", nil, false},
		{"-Inf", nil, false},
		{"1e400", nil, false},
		{"1e-300", nil, false},
		{"0", nil, false},
		{"-1", nil, false},
		{"0.5,4", nil, false},
		{"0.5,", nil, false},
		{"abc", nil, false},
	} {
		got, err := parseRates(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseRates(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseRates(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestBadFaultsExitBeforeRunning runs mittbench on -faults schedules it
// cannot honour: one that does not parse, and ones naming a node outside
// the fleet (0–8 quick, 0–19 full). Each exits 2 with one line on stderr
// and nothing on stdout, before any experiment runs. The test binary
// re-runs itself as mittbench, with the arguments in MITTBENCH_ARGS.
func TestBadFaultsExitBeforeRunning(t *testing.T) {
	if args := os.Getenv("MITTBENCH_ARGS"); args != "" {
		os.Args = append(os.Args[:1], strings.Split(args, "\n")...)
		main()
		return
	}
	for _, args := range [][]string{
		{"-run", "failslow", "-faults", "crash node=50 at=1s for=1s"},
		{"-run", "failslow", "-faults", "crash node=9 at=1s for=1s"},
		{"-run", "failslow", "-full", "-faults", "crash node=20 at=1s for=1s"},
		{"-run", "failslow", "-faults", "bogus"},
		{"-run", "fig4", "-faults", "crash node=9 at=1s for=1s"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFaultsExitBeforeRunning$")
		cmd.Env = append(os.Environ(), "MITTBENCH_ARGS="+strings.Join(args, "\n"))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("mittbench %q: %v, want exit status 2", args, err)
		}
		if lines := strings.Count(stderr.String(), "\n"); lines != 1 || stdout.Len() != 0 {
			t.Errorf("mittbench %q: stdout %q, stderr %q; want one line on stderr only", args, stdout.String(), stderr.String())
		}
	}
}
