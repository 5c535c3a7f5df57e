package main

import (
	"testing"

	"facsp/internal/cac"
	"facsp/internal/core"
)

func TestBuildController(t *testing.T) {
	tests := []struct {
		scheme  string
		want    string
		wantErr bool
	}{
		{scheme: "facsp", want: "FACS-P"},
		{scheme: "facs", want: "FACS"},
		{scheme: "guard", want: "guard-channel"},
		{scheme: "sharing", want: "complete-sharing"},
		{scheme: "adapt", want: "adapt"},
		{scheme: "adapt-fuzzy", want: "adapt-fuzzy"},
		{scheme: "optimal", want: "optimal"},
		{scheme: "mystery", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.scheme, func(t *testing.T) {
			ctrl, err := buildController(tt.scheme, 40, 8, 0)
			if (err != nil) != tt.wantErr {
				t.Fatalf("buildController error = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if got := cac.Name(ctrl); got != tt.want {
				t.Errorf("scheme name = %q, want %q", got, tt.want)
			}
			if got := ctrl.Capacity(); got != 40 {
				t.Errorf("capacity = %v", got)
			}
		})
	}
}

func TestBuildControllerInvalidParams(t *testing.T) {
	if _, err := buildController("facsp", -1, 0, 0); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := buildController("adapt", -1, 0, 0); err == nil {
		t.Error("negative adapt capacity accepted")
	}
	if _, err := buildController("guard", 40, 40, 0); err == nil {
		t.Error("guard == capacity accepted")
	}
}

func TestRunRejectsBadScheme(t *testing.T) {
	if err := run([]string{"-scheme", "nope", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("bad scheme accepted")
	}
}

func TestRunRejectsBadSurface(t *testing.T) {
	// The surface resolution only applies to the schemes with a fuzzy
	// pipeline.
	for _, scheme := range []string{"guard", "sharing", "adapt", "optimal"} {
		if err := run([]string{"-scheme", scheme, "-surface", "33", "-addr", "127.0.0.1:0"}); err == nil {
			t.Errorf("-surface with scheme %s accepted", scheme)
		}
	}
	// An invalid resolution fails before the listener opens.
	for _, scheme := range []string{"facsp", "facs", "adapt-fuzzy"} {
		for _, res := range []string{"1", "-3"} {
			if err := run([]string{"-scheme", scheme, "-surface", res, "-addr", "127.0.0.1:0"}); err == nil {
				t.Errorf("-scheme %s -surface %s accepted", scheme, res)
			}
		}
	}
}

// TestBuildControllerSurface checks that every fuzzy scheme honours the
// surface resolution: a surface-backed controller's score differs from
// the exact one somewhere, and cells built at one resolution share one
// compiled surface pair.
func TestBuildControllerSurface(t *testing.T) {
	req := cac.Request{ID: 1, Speed: 37, Angle: 23, Bandwidth: 5, RealTime: true}
	for _, scheme := range []string{"facsp", "facs", "adapt-fuzzy"} {
		exact, err := buildController(scheme, 40, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		surf, err := buildController(scheme, 40, 8, 9)
		if err != nil {
			t.Fatal(err)
		}
		if de, ds := exact.Admit(req), surf.Admit(req); de.Score == ds.Score {
			t.Errorf("%s: -surface 9 score %v equals the exact score", scheme, ds.Score)
		}
	}
	_, misses := core.SurfaceCacheCounters()
	for i := 0; i < 3; i++ {
		if _, err := buildController("facsp", 40, 8, 9); err != nil {
			t.Fatal(err)
		}
	}
	if _, after := core.SurfaceCacheCounters(); after != misses {
		t.Errorf("rebuilding resolution-9 cells compiled %d new surfaces, want 0", after-misses)
	}
}
