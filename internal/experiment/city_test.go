package experiment

import (
	"errors"
	"reflect"
	"testing"

	"facsp/internal/cellsim"
	"facsp/internal/hotness"
	"facsp/internal/metrics"
	"facsp/internal/scenario"
)

// TestRunCityDeterminism runs the embedded metro-city scenario sharded
// with 1 and 4 workers and requires bit-identical results, scheme guard
// (cheap) standing in for the fuzzy controllers.
func TestRunCityDeterminism(t *testing.T) {
	s, err := scenario.Load("metro-city")
	if err != nil {
		t.Fatal(err)
	}
	run := CityRun{Scheme: "guard", Load: 8, Seed: 3}
	run.Shard = cellsim.ShardOptions{Groups: 8, Workers: 1}
	a, err := RunCity(s, run, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run.Shard.Workers = 4
	b, err := RunCity(s, run, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("city run diverged across workers:\n got %+v\nwant %+v", b, a)
	}
	if a.Requests == 0 || a.Accepted == 0 {
		t.Errorf("city run carried no traffic: %+v", a)
	}
	if a.Accepted+a.Blocked != a.Requests {
		t.Errorf("accepted %d + blocked %d != requests %d", a.Accepted, a.Blocked, a.Requests)
	}
}

// TestRunCityRejectsSCC pins that the network-level scheme cannot shard.
func TestRunCityRejectsSCC(t *testing.T) {
	s, err := scenario.Load("metro-city")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunCity(s, CityRun{Scheme: "scc", Load: 4, Seed: 1}, Options{})
	if !errors.Is(err, ErrSchemeNotApplicable) {
		t.Errorf("scc sharded error = %v, want ErrSchemeNotApplicable", err)
	}
}

// TestRunCityUnknownScheme covers factory errors.
func TestRunCityUnknownScheme(t *testing.T) {
	s, err := scenario.Load("metro-city")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCity(s, CityRun{Scheme: "nope", Load: 4, Seed: 1}, Options{}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := RunCity(s, CityRun{Scheme: "guard", Load: -1, Seed: 1}, Options{}); err == nil {
		t.Error("negative load accepted")
	}
}

// TestRunCityRejectsSinks pins that a city run refuses the telemetry
// sinks the sharded engine cannot fill, instead of dropping them.
func TestRunCityRejectsSinks(t *testing.T) {
	s, err := scenario.Load("metro-city")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := metrics.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := hotness.New(1024, 30)
	if err != nil {
		t.Fatal(err)
	}
	run := CityRun{Scheme: "guard", Load: 4, Seed: 1}
	if _, err := RunCity(s, run, Options{Metrics: reg}); err == nil {
		t.Error("RunCity accepted Options.Metrics")
	}
	if _, err := RunCity(s, run, Options{Hotness: hot}); err == nil {
		t.Error("RunCity accepted Options.Hotness")
	}
}
