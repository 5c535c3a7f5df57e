// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, checks the program's outputs, prints a report
// and, as its last line, one JSON object with the run's metrics:
//
//	bash perfbench/run.sh --workload serve-flash --seed 1 --seconds 24 --trace 0
//
// See README.md in this directory for the workloads, metrics and traps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted int // operations attempted plus checks run
	failed    int // failed operations plus failed checks
	checks    []check
	e2e       []metric // end-to-end metrics (untraced run)
	layers    []metric // per-layer metrics (traced run)
	notes     []string // report lines
}

// check is one output check.
type check struct {
	name   string
	ok     bool
	detail string
}

func (o *outcome) check(name string, ok bool, detail string) {
	o.checks = append(o.checks, check{name, ok, detail})
	o.attempted++
	if !ok {
		o.failed++
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// config is one invocation.
type config struct {
	seed    uint64
	seconds int
	trace   bool
	ladder  bool // serve-flash: also search the rate ladder for max_rate_rps
}

// children is the number of processes an end-to-end run is split into.
// A process keeps its speed for its whole life, but the next one on the
// same machine may run 10-15% faster or slower, so a run reports the
// median over several processes, each measuring its share of the time.
const children = 5

var workloads = map[string]func(config) (*outcome, error){
	"serve-flash": runServeFlash,
	"paper-fig10": runPaperFig10,
	"city-guard":  runCityGuard,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 24, "measurement time of the run in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	child := fs.Int("child", 0, "run as the k-th measuring process of an end-to-end run and measure in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, ladder: *child == children}
	var out *outcome
	var err error
	if cfg.trace || *child > 0 {
		out, err = w(cfg)
	} else {
		out, err = runChildren(*name, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return report(stdout, *name, cfg, out)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultDoc is the JSON object a run prints as its last line.
type resultDoc struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChildren runs the workload in children processes one after the
// other, each measuring seconds/children, and reports for every metric
// the median over the processes.
func runChildren(name string, cfg config) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	vals := make(map[string][]float64)
	var order []metric
	for k := 1; k <= children; k++ {
		cmd := exec.Command(exe, "-child", strconv.Itoa(k), "-workload", name,
			"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.Itoa(max(cfg.seconds/children, 1)), "-trace", "0")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("process %d: %w", k, err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var doc resultDoc
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
			return nil, fmt.Errorf("process %d: result line: %w", k, err)
		}
		for _, l := range lines[1 : len(lines)-1] {
			out.note("[%d] %s", k, strings.TrimSpace(l))
		}
		out.attempted += doc.Attempted
		out.failed += doc.Failed
		out.checks = append(out.checks, check{fmt.Sprintf("process-%d-correct", k), doc.Correct, ""})
		for n, v := range doc.Metrics {
			if k == 1 {
				order = append(order, metric{name: n, unit: v.Unit})
			}
			vals[n] = append(vals[n], v.Value)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].name < order[j].name })
	for _, m := range order {
		if len(vals[m.name]) != children {
			return nil, fmt.Errorf("metric %s missing from a process", m.name)
		}
		m.value = median(vals[m.name])
		out.e2e = append(out.e2e, m)
	}
	return out, nil
}

// report prints the run's notes, metrics and checks, then the JSON line.
func report(w io.Writer, name string, cfg config, out *outcome) int {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v GOMAXPROCS=%d\n",
		name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	for _, n := range out.notes {
		fmt.Fprintln(w, "  "+n)
	}
	ms := out.e2e
	if cfg.trace {
		ms = out.layers
	}
	for _, m := range ms {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	correct := true
	for _, c := range out.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
			correct = false
		}
		fmt.Fprintf(w, "  check %-34s %s %s\n", c.name, status, c.detail)
	}
	failPct := 0.0
	if out.attempted > 0 {
		failPct = 100 * float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "  fail_pct %.4f %% (%d failed of %d attempted)\n", failPct, out.failed, out.attempted)

	doc := resultDoc{correct, out.attempted, out.failed, make(map[string]metricVal, len(ms))}
	for _, m := range ms {
		doc.Metrics[m.name] = metricVal{m.value, m.unit}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rtSample is a reading of the Go runtime's allocation and GC counters.
type rtSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	get := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{get(0), get(1), get(2)}
}

// runtimeLayer sets the runtime layer's metrics from two readings
// around ops operations: bytes allocated per operation and the share of
// CPU time spent in the garbage collector.
func runtimeLayer(v map[string]float64, before, after rtSample, ops int) {
	if ops > 0 {
		v["runtime.alloc_bytes_per_op"] = (after.allocBytes - before.allocBytes) / float64(ops)
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		v["runtime.gc_cpu_pct"] = 100 * (after.gcCPU - before.gcCPU) / cpu
	}
}
