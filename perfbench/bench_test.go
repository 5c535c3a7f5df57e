package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"facsp/internal/cellsim"
	"facsp/internal/experiment"
	"facsp/internal/scenario"
)

// TestServeLayersReconcile runs a short traced phase and checks that the
// layers it is split into account for the client-observed latency: every
// measured request is linked to its server read, its reply write and,
// for admits, its controller span; no layer is negative; and the layer
// means add up to the mean latency the client measured on its own.
func TestServeLayersReconcile(t *testing.T) {
	plan, err := flashSchedule(refRate, 500*time.Millisecond, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(true)
	d, err := startDaemon(tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runPhase(d, plan, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = d.close()
	if len(r.failures) > 0 {
		t.Fatalf("phase failures: %v", r.failures)
	}
	ls := linkServe(r, tr)
	if ls.missing != 0 || ls.linked != len(r.arrivals) {
		t.Fatalf("linked %d of %d measured requests, %d missing", ls.linked, len(r.arrivals), ls.missing)
	}
	gap, minSelf, minLoop := ls.reconcile()
	if minSelf < 0 || minLoop < 0 {
		t.Errorf("negative layer: min bsd.self %d ns, min net.loopback %d ns", minSelf, minLoop)
	}
	// The stated margin: the layers must explain the latency to 1%.
	if gap > 1 {
		t.Errorf("layers leave %.2f%% of the latency unexplained", gap)
	}
	var client []float64
	for _, a := range r.arrivals {
		client = append(client, float64(a.lat)/1e3)
	}
	traced := mean(ls.field(func(l requestLayers) int64 { return l.latency }))
	if d := math.Abs(mean(client) - traced); d > 0.01*mean(client) {
		t.Errorf("client mean latency %.1f us, traced requests' %.1f us", mean(client), traced)
	}
	if core := mean(ls.field(func(l requestLayers) int64 { return l.core })); !(core > 0) {
		t.Errorf("no controller time linked (mean %.2f us)", core)
	}
}

// TestTracedRepliesEqualUntraced: the wrappers must not change a byte of
// any reply, including the scheme name cac.Name derives.
func TestTracedRepliesEqualUntraced(t *testing.T) {
	plan, err := flashSchedule(refRate, 500*time.Millisecond, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := equalReplies(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("traced daemon's replies differ from the untraced daemon's")
	}
	c := &tracedCtrl{inner: deadCell{}, st: &ctrlStats{}}
	if got := c.SchemeName(); got != "main.deadCell" {
		t.Errorf("wrapped unnamed controller reports %q", got)
	}
}

// TestSimLayersReconcile traces two Fig. 10 batches: their digests must
// equal the untraced ones, and the layers must leave a remainder between
// 0 and the workers' whole capacity.
func TestSimLayersReconcile(t *testing.T) {
	out := &outcome{}
	out, err := traceSim(out, "fig10", 2*time.Second, func(tr *tracer) (func() (batch, error), error) {
		return func() (batch, error) { return fig10Batch(5, tr) }, nil
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.detail)
		}
	}
	v := map[string]float64{}
	for _, m := range out.layers {
		v[m.name] = m.value
	}
	if v["core.admits"] <= 0 || v["mobility.advances"] <= 0 || v["cellsim.self_s"] <= 0 {
		t.Errorf("layers not measured: %v", v)
	}
	if g := v["recon.gap_pct"]; g < 0 || g >= 50 {
		t.Errorf("remainder %.1f%% of the workers' capacity", g)
	}
}

// TestCityMatchesRunCity checks the benchmark's city set-up against the
// repository's own city runner, and that reusing the compiled admitter
// reproduces a fresh one's result.
func TestCityMatchesRunCity(t *testing.T) {
	if testing.Short() {
		t.Skip("city runs take seconds")
	}
	seed := citySeedList(1)[0]
	s, err := scenario.GenerateCity(scenario.EvalCityParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.RunCity(s, experiment.CityRun{
		Scheme: "guard", Load: cityLoad, Seed: seed,
		Shard: cellsim.ShardOptions{Groups: cityGroups, Workers: simWorkers},
	}, experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := setupCity(1, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		got, err := c.run(seed, simWorkers)
		if err != nil {
			t.Fatal(err)
		}
		if resultDigest(got) != resultDigest(want) {
			t.Fatalf("run %d: traced benchmark city %+v, experiment.RunCity %+v", i, got, want)
		}
	}
}

// TestWireReplay replays a few captured lines through the codec.
func TestWireReplay(t *testing.T) {
	req := []byte(`{"v":1,"op":"admit","id":1,"class":"voice","speed_kmh":12.5,"angle_deg":-3}` + "\n" +
		`{"v":1,"op":"status","cell":2}` + "\n")
	resp := []byte(`{"v":1,"ok":true,"accept":true,"score":0.4,"outcome":"WA","occupancy":5,"capacity":40,"scheme":"FACS-P"}` + "\n")
	dec, enc, allocs, err := wireReplay(req, resp)
	if err != nil {
		t.Fatal(err)
	}
	if !(dec > 0 && enc > 0 && allocs > 0) {
		t.Errorf("decode %v ns, encode %v ns, %v allocs per message", dec, enc, allocs)
	}
}

// TestReportShape runs one short measuring process and checks the JSON
// line: exactly the four keys, and every end-to-end metric the benchmark
// declares.
func TestReportShape(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "paper-fig10", "-seed", "3", "-seconds", "1", "-child", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("keys %v", keys)
	}
	var ms map[string]metricVal
	if err := json.Unmarshal(doc["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"throughput_per_s", "setup_s", "peak_rss_mb"} {
		if m, ok := ms[name]; !ok || !(m.Value > 0) {
			t.Errorf("metric %s missing or not positive: %+v", name, m)
		}
	}
	if len(ms) != 3 {
		t.Errorf("metrics %v", ms)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 10000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 10000
		if got := h.quantile(q); math.Abs(got-want) > 0.1*want {
			t.Errorf("q%v = %v, want about %v", q, got, want)
		}
	}
}
