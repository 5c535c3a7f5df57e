package facsp_test

import (
	"fmt"
	"log"

	"facsp"
)

// ExampleNewFACSP is the quick-start admit loop: build the paper's
// proposed controller and drive a few connection requests through it.
func ExampleNewFACSP() {
	ctrl, err := facsp.NewFACSP()
	if err != nil {
		log.Fatal(err)
	}
	requests := []struct {
		class        facsp.Class
		speed, angle float64
	}{
		{facsp.Voice, 60, 0},  // fast user heading at the base station
		{facsp.Video, 10, 90}, // slow user crossing the cell sideways
		{facsp.Text, 30, 45},
	}
	for _, r := range requests {
		req := facsp.NewRequest(r.class, r.speed, r.angle)
		dec := ctrl.Admit(req)
		fmt.Printf("%-5s speed=%3g angle=%2g -> accept=%-5v outcome=%s\n",
			r.class, r.speed, r.angle, dec.Accept, dec.Outcome)
		if dec.Accept {
			defer func() {
				if err := ctrl.Release(req); err != nil {
					log.Fatal(err)
				}
			}()
		}
	}
	// Output:
	// voice speed= 60 angle= 0 -> accept=true  outcome=A
	// video speed= 10 angle=90 -> accept=true  outcome=WA
	// text  speed= 30 angle=45 -> accept=true  outcome=NRNA
}

// ExampleWithSurfaceCache compiles the two fuzzy controllers into
// precomputed decision surfaces: the same admissions, answered by
// multilinear interpolation instead of a full Mamdani pass.
func ExampleWithSurfaceCache() {
	exact, err := facsp.NewFACSP()
	if err != nil {
		log.Fatal(err)
	}
	fast, err := facsp.NewFACSP(facsp.WithSurfaceCache(0)) // 0 = default resolution
	if err != nil {
		log.Fatal(err)
	}
	req := facsp.NewRequest(facsp.Voice, 80, 20)
	fmt.Printf("exact:   accept=%v\n", exact.Admit(req).Accept)
	fmt.Printf("surface: accept=%v\n", fast.Admit(req).Accept)
	// Output:
	// exact:   accept=true
	// surface: accept=true
}

// Example_configSweep sweeps a controller parameter — the empty-cell
// admission threshold Theta0 — to show how PConfig shapes the decision for
// one fixed borderline request.
func Example_configSweep() {
	req := facsp.NewRequest(facsp.Video, 100, 60) // fast, oblique video user
	for _, theta0 := range []float64{-0.8, -0.4, 0.2, 0.6} {
		cfg := facsp.DefaultPConfig()
		cfg.Theta0 = theta0
		ctrl, err := facsp.NewFACSP(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("theta0=%+.1f -> accept=%v\n", theta0, ctrl.Admit(req).Accept)
	}
	// Output:
	// theta0=-0.8 -> accept=true
	// theta0=-0.4 -> accept=true
	// theta0=+0.2 -> accept=true
	// theta0=+0.6 -> accept=false
}

// ExampleNewAdapt shows the adaptive bandwidth-degradation scheme doing
// its job: a full cell admits a video handoff by squeezing on-going calls
// down their degradation ladders, then restores them on release.
func ExampleNewAdapt() {
	ctrl, err := facsp.NewAdapt() // 40 BU cell, video ladder 10-7-5-3
	if err != nil {
		log.Fatal(err)
	}
	for id := uint64(1); id <= 4; id++ { // fill the cell with video calls
		ctrl.Admit(facsp.Request{ID: id, Bandwidth: 10, RealTime: true})
	}
	handoff := facsp.Request{ID: 5, Bandwidth: 10, RealTime: true, Handoff: true}
	dec := ctrl.Admit(handoff)
	fmt.Printf("handoff: accept=%v allocated=%v outcome=%s\n", dec.Accept, dec.Allocated, dec.Outcome)
	alloc, _ := ctrl.Allocation(1)
	fmt.Printf("on-going call 1 degraded to %v BU\n", alloc)

	if err := ctrl.Release(handoff); err != nil {
		log.Fatal(err)
	}
	alloc, _ = ctrl.Allocation(1)
	fmt.Printf("after release call 1 is back to %v BU\n", alloc)
	// Output:
	// handoff: accept=true allocated=10 outcome=degraded-others
	// on-going call 1 degraded to 7 BU
	// after release call 1 is back to 10 BU
}

// ExampleRunScenario ranks every admission scheme on a named scenario
// from the embedded library — here the flash-crowd burst at the centre
// cell — at one (tiny) load point. SCENARIOS.md documents the library.
func ExampleRunScenario() {
	s, err := facsp.LoadScenario("flash-crowd")
	if err != nil {
		log.Fatal(err)
	}
	curves, err := facsp.RunScenario(s, facsp.ExperimentOptions{
		Loads:        []int{8},
		Replications: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %s ranks %d schemes:\n", s.Name, len(curves))
	for _, c := range curves {
		fmt.Printf("%s: %d point(s) at N=%.0f\n", c.Name, len(c.Points), c.Points[0].X)
	}
	// Output:
	// scenario flash-crowd ranks 7 schemes:
	// adapt: 1 point(s) at N=8
	// adapt-fuzzy: 1 point(s) at N=8
	// FACS: 1 point(s) at N=8
	// FACS-P: 1 point(s) at N=8
	// guard-channel: 1 point(s) at N=8
	// optimal: 1 point(s) at N=8
	// SCC: 1 point(s) at N=8
}

// Example_scenarioFile authors a scenario as JSON — the same format the
// files under internal/scenario/scenarios and the facs-sim -scenario flag
// use — and runs it: a hot-spot centre cell with double load next to a
// dead cell in outage. See SCENARIOS.md for the full schema.
func Example_scenarioFile() {
	doc := []byte(`{
		"schema": 1,
		"name": "hotspot-next-to-outage",
		"cells": [
			{"at": [0, 0], "load": 2},
			{"at": [1, 0], "capacity_scale": 0}
		]
	}`)
	s, err := facsp.ScenarioFromJSON(doc) // facsp.ScenarioFromFile reads from disk
	if err != nil {
		log.Fatal(err)
	}
	curves, err := facsp.RunScenario(s, facsp.ExperimentOptions{
		Loads:        []int{10},
		Replications: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The dead cell makes capacity heterogeneous, so the network-level SCC
	// comparator sits this scenario out.
	fmt.Printf("%s: %d schemes ranked\n", s.Name, len(curves))
	for _, c := range curves {
		fmt.Println(c.Name)
	}
	// Output:
	// hotspot-next-to-outage: 6 schemes ranked
	// adapt
	// adapt-fuzzy
	// FACS
	// FACS-P
	// guard-channel
	// optimal
}

// ExampleRunFigure regenerates (a tiny slice of) one of the paper's
// figures; sweeps are deterministic for a given ExperimentOptions, however
// many workers shard them.
func ExampleRunFigure() {
	curves, err := facsp.RunFigure("10", facsp.ExperimentOptions{
		Loads:        []int{10},
		Replications: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range curves {
		fmt.Printf("%s: %d point(s) at N=%.0f\n", c.Name, len(c.Points), c.Points[0].X)
	}
	// Output:
	// FACS-P (proposed): 1 point(s) at N=10
	// FACS (previous): 1 point(s) at N=10
}
