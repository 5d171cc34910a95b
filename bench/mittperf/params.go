package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// calibrationPath holds the frozen workload parameters, the expected
// digests, and the recorded baseline, relative to the repository root the
// benchmark runs from.
const calibrationPath = "bench/calibration.json"

// calibration is bench/calibration.json: the fleet's size, D, offered rates
// and knobs, measured once at the dev seed by -calibrate and then frozen
// (the benchmark never recalibrates, or the offered load would depend on
// the code under test), plus the expected digests and the recorded
// baseline. Workload shape that nothing measures is code.
type calibration struct {
	DevSeed     int64 `json:"dev_seed"`
	HeldOutSeed int64 `json:"held_out_seed"`

	Fleet fleetParams `json:"fleet"`

	// Digests maps workload → seed → the FNV-64a digest of one pass.
	Digests map[string]map[string]string `json:"digests"`
	// Baseline maps workload → metric → the distribution of ten timed
	// runs at the dev seed on the calibration machine.
	Baseline map[string]map[string]baselineStat `json:"baseline,omitempty"`
}

// fleetParams are fleet-get's and fleet-put's frozen inputs.
type fleetParams struct {
	Nodes int `json:"nodes"`
	// GetLegMs and PutLegMs are D, each leg's open-loop phase in virtual
	// ms, per path.
	GetLegMs int64 `json:"get_leg_ms"`
	PutLegMs int64 `json:"put_leg_ms"`
	// Offered rates (aggregate ops/s) per leg pair: the saturation probes
	// below times rateMults.
	GetRates   []float64 `json:"get_rates_per_s"`
	PutRates   []float64 `json:"put_rates_per_s"`
	GetSatPerS float64   `json:"get_sat_per_s"`
	PutSatPerS float64   `json:"put_sat_per_s"`
	// Deadline / timeout / hedge knobs: a noisy Base leg's p95 per path.
	GetP95Ns int64 `json:"get_p95_ns"`
	PutP95Ns int64 `json:"put_p95_ns"`
}

// baselineStat is one metric's distribution over the baseline runs.
type baselineStat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func ms(v int64) time.Duration { return time.Duration(v) * time.Millisecond }

func loadCalibration() (*calibration, error) {
	b, err := os.ReadFile(calibrationPath)
	if err != nil {
		return nil, err
	}
	var c calibration
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", calibrationPath, err)
	}
	return &c, nil
}

func (c *calibration) save() error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(calibrationPath, append(b, '\n'), 0o644)
}
