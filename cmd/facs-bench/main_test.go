package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"facsp/internal/perf"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
		want string
	}{
		{name: "bad-suite", args: []string{"-suite", "nope"}, want: "unknown suite"},
		{name: "bad-loads", args: []string{"-loads", "10,x"}, want: "bad load"},
		{name: "negative-load", args: []string{"-loads", "-5"}, want: "negative load"},
		{name: "zero-reps", args: []string{"-reps", "0"}, want: "-reps"},
		{name: "negative-workers", args: []string{"-workers", "-1"}, want: "-workers"},
		{name: "surface-one", args: []string{"-surface", "1"}, want: "-surface"},
		{name: "bad-benchtime", args: []string{"-benchtime", "-1s"}, want: "-benchtime"},
		{name: "bad-filter", args: []string{"-filter", "["}, want: "bad filter"},
		{name: "positional", args: []string{"extra"}, want: "unexpected arguments"},
		{name: "no-specs", args: []string{"-filter", "^matches-nothing$"}, want: "no specs"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("run(%v) error = %v, want mention of %q", tt.args, err, tt.want)
			}
		})
	}
}

// TestRunEmitsValidReport measures one cheap spec with a tiny time budget
// and checks the emitted BENCH.json parses and carries the environment.
func TestRunEmitsValidReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	err := run([]string{
		"-suite", "full",
		"-filter", "^micro/des/schedule$",
		"-benchtime", "10ms",
		"-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := perf.ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "micro/des/schedule" {
		t.Fatalf("report results = %+v", rep.Results)
	}
	if rep.Results[0].NsPerOp <= 0 || rep.GoVersion == "" || rep.CPUs < 1 {
		t.Errorf("implausible report: %+v", rep)
	}
}

// TestGateFailsOnRegression pins the CI contract: a spec measured
// >max-regress slower than its baseline (relative to the suite's median
// hardware scale), an allocs/op increase, or a baseline spec that was not
// measured makes the gate fail, and BENCH_GATE=off downgrades the failure
// to a report. The verdicts are driven against fixed reports, so none of
// them hinges on measurement noise; one real measurement checks the
// command's end-to-end plumbing.
func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_baseline.json")

	// Smoke: measure three cheap specs and gate the command against its
	// own measurement. Every gate invocation re-measures, so the
	// tolerance is wide: this checks the plumbing, not measurement
	// stability at a small time budget.
	out := filepath.Join(dir, "BENCH.json")
	args := []string{
		"-suite", "full",
		"-filter", "^micro/(des/schedule|flc1/exact|flc2/exact)$",
		"-benchtime", "20ms",
		"-out", out,
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	measured, err := perf.ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(measured.Results) != 3 {
		t.Fatalf("measured %d specs, want 3", len(measured.Results))
	}
	writeReport(t, baseline, measured)
	if err := run(append(args, "-baseline", baseline, "-max-regress", "1000")); err != nil {
		t.Fatalf("gate failed against its own measurement: %v", err)
	}

	// The fixed reports: three micro specs, so the median normalization
	// anchors on the two unchanged ones.
	current := perf.NewReport("full", []perf.Result{
		{Name: "micro/a", NsPerOp: 1000},
		{Name: "micro/b", NsPerOp: 2000, AllocsPerOp: 12},
		{Name: "micro/c", NsPerOp: 3000},
	})
	derive := func(edit func(r *perf.Report)) {
		t.Helper()
		c := *current
		c.Results = append([]perf.Result(nil), current.Results...)
		edit(&c)
		writeReport(t, baseline, &c)
	}
	const tolerance = 0.30

	derive(func(*perf.Report) {})
	if err := gate(baseline, current, tolerance); err != nil {
		t.Fatalf("gate failed against an identical baseline: %v", err)
	}

	// A 2x slowdown of one spec (its baseline claims it used to run twice
	// as fast): certain failure.
	derive(func(r *perf.Report) { r.Results[0].NsPerOp /= 2 })
	err = gate(baseline, current, tolerance)
	if err == nil || !strings.Contains(err.Error(), "1 regression(s), 0 missing") {
		t.Fatalf("gate error = %v, want one ns/op regression", err)
	}

	// The documented override downgrades the same comparison.
	t.Setenv("BENCH_GATE", "off")
	if err := gate(baseline, current, tolerance); err != nil {
		t.Fatalf("BENCH_GATE=off still failed: %v", err)
	}
	t.Setenv("BENCH_GATE", "")

	// An allocs/op explosion fails even at identical ns/op: the
	// hardware-independent half of the gate.
	derive(func(r *perf.Report) { r.Results[1].AllocsPerOp = 0 })
	err = gate(baseline, current, tolerance)
	if err == nil || !strings.Contains(err.Error(), "1 regression(s), 0 missing") {
		t.Fatalf("gate error = %v, want one allocs/op regression", err)
	}

	// Dropping a gated spec from the measurement must also fail.
	derive(func(r *perf.Report) {
		r.Results = append(r.Results, perf.Result{Name: "micro/never-measured", NsPerOp: 1})
	})
	err = gate(baseline, current, tolerance)
	if err == nil || !strings.Contains(err.Error(), "0 regression(s), 1 missing") {
		t.Fatalf("gate error = %v, want a missing-spec failure", err)
	}
}

func writeReport(t *testing.T, path string, r *perf.Report) {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
