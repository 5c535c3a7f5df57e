package facsp_test

// The documentation gate: these tests diff the markdown front door
// (README.md, EXPERIMENTS.md, SCENARIOS.md) against the code's live
// registries — figure ids, scenario names, scheme ids — and check that
// relative links resolve, so the docs cannot silently rot as the
// registries grow. CI runs them on every push.

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"facsp/internal/experiment"
	"facsp/internal/metrics"
	"facsp/internal/perf"
	"facsp/internal/scenario"
)

func readDoc(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("documentation file missing: %v", err)
	}
	return string(data)
}

// normalize lower-cases and strips dashes/spaces so "FACS-P" matches the
// scheme id "facsp" and "guard-channel" matches "guard".
func normalize(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "-", "")
	s = strings.ReplaceAll(s, " ", "")
	return s
}

func TestDocsFigureTableMatchesRegistry(t *testing.T) {
	experiments := readDoc(t, "EXPERIMENTS.md")
	for _, id := range experiment.FigureIDs() {
		if !strings.Contains(experiments, "`"+id+"`") {
			t.Errorf("EXPERIMENTS.md does not document figure id `%s`", id)
		}
	}
}

func TestDocsScenarioCookbookMatchesLibrary(t *testing.T) {
	cookbook := readDoc(t, "SCENARIOS.md")
	for _, name := range scenario.Names() {
		if !strings.Contains(cookbook, "### "+name) {
			t.Errorf("SCENARIOS.md has no section for scenario %q", name)
		}
	}
	for _, id := range experiment.SchemeIDs() {
		if !strings.Contains(cookbook, "`"+id+"`") {
			t.Errorf("SCENARIOS.md does not mention scheme id `%s`", id)
		}
	}
	current := fmt.Sprintf(`"schema": %d`, scenario.SchemaVersion)
	if !strings.Contains(cookbook, current) {
		t.Errorf("SCENARIOS.md does not show the current schema version (%s)", current)
	}
	if !strings.Contains(cookbook, "`topology`") {
		t.Error("SCENARIOS.md does not document the topology section")
	}
	if !strings.Contains(cookbook, "-generate-city") {
		t.Error("SCENARIOS.md does not document the city generator")
	}
}

// serverSchemes parses the facs-server -scheme registry out of its flag
// usage string, which the server keeps next to the switch it documents.
func serverSchemes(t *testing.T) []string {
	t.Helper()
	src := readDoc(t, "cmd/facs-server/main.go")
	m := regexp.MustCompile(`admission scheme: ([a-z, -]+)"`).FindStringSubmatch(src)
	if m == nil {
		t.Fatal("cannot find the -scheme usage string in cmd/facs-server/main.go")
	}
	var out []string
	for _, s := range strings.Split(m[1], ",") {
		out = append(out, strings.TrimSpace(s))
	}
	if len(out) < 4 {
		t.Fatalf("suspiciously short server scheme list: %v", out)
	}
	return out
}

func TestDocsSchemeTableMatchesRegistries(t *testing.T) {
	readme := readDoc(t, "README.md")
	start := strings.Index(readme, "## The schemes")
	if start < 0 {
		t.Fatal("README.md has no scheme table section")
	}
	section := readme[start:]
	if end := strings.Index(section[1:], "\n## "); end > 0 {
		section = section[:end+1]
	}
	norm := normalize(section)

	// Every scheme the scenario sweeps rank must be in the README table...
	for _, id := range experiment.SchemeIDs() {
		if !strings.Contains(norm, normalize(id)) {
			t.Errorf("README scheme table does not cover experiment scheme %q", id)
		}
	}
	// ...and so must every scheme facs-server serves.
	for _, id := range serverSchemes(t) {
		if !strings.Contains(norm, normalize(id)) {
			t.Errorf("README scheme table does not cover facs-server scheme %q", id)
		}
	}
}

// TestDocsPerfSuiteMatchesRegistry diffs the Performance section of
// EXPERIMENTS.md against the live perf registry: every benchmark spec
// must be documented, and the section must describe the artifact, the
// gate's escape hatch and the exact-inference bit-identity contract.
func TestDocsPerfSuiteMatchesRegistry(t *testing.T) {
	experiments := readDoc(t, "EXPERIMENTS.md")
	if !strings.Contains(experiments, "## Performance") {
		t.Fatal("EXPERIMENTS.md has no Performance section")
	}
	for _, s := range perf.Specs() {
		if !strings.Contains(experiments, "`"+s.Name+"`") {
			t.Errorf("EXPERIMENTS.md does not document perf spec `%s`", s.Name)
		}
	}
	for _, token := range []string{"BENCH.json", "BENCH_baseline.json", "facs-bench", "bench-override", "BENCH_GATE",
		"### Exact inference", "TestExactInferenceBitIdentical"} {
		if !strings.Contains(experiments, token) {
			t.Errorf("EXPERIMENTS.md Performance section does not mention %s", token)
		}
	}
	readme := readDoc(t, "README.md")
	for _, token := range []string{"facs-bench", "BENCH_baseline.json", "perf"} {
		if !strings.Contains(readme, token) {
			t.Errorf("README architecture map does not mention %s", token)
		}
	}
}

// TestDocsBenchBaselineMatchesRegistry keeps the committed gate baseline
// honest: every baseline spec must still exist in the registry (a rename
// would silently un-gate it) and every smoke-suite spec must be gated.
func TestDocsBenchBaselineMatchesRegistry(t *testing.T) {
	base, err := perf.ReadReport("BENCH_baseline.json")
	if err != nil {
		t.Fatalf("committed baseline unreadable: %v", err)
	}
	if base.Suite != "smoke" {
		t.Errorf("baseline suite = %q, want the smoke suite", base.Suite)
	}
	registry := map[string]bool{}
	for _, s := range perf.Specs() {
		registry[s.Name] = true
	}
	gated := map[string]bool{}
	for _, r := range base.Results {
		gated[r.Name] = true
		if !registry[r.Name] {
			t.Errorf("baseline spec %q no longer exists in the perf registry", r.Name)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("baseline spec %q has non-positive ns/op", r.Name)
		}
	}
	for _, s := range perf.SmokeSpecs() {
		if !gated[s.Name] {
			t.Errorf("smoke spec %q is missing from BENCH_baseline.json — regenerate the baseline", s.Name)
		}
	}
}

// TestDocsMetricsFamiliesDocumented diffs the observability docs against
// the live metrics registry: every Prometheus family the process can
// expose — per-cell series, hotness, registered scalars — must appear in
// the EXPERIMENTS.md family table, and both doors must document the
// endpoints and the server flag. Importing facsp (above) pulls in
// internal/core, so the surface-cache scalar families are registered by
// the time this runs, exactly as in a live daemon.
func TestDocsMetricsFamiliesDocumented(t *testing.T) {
	experiments := readDoc(t, "EXPERIMENTS.md")
	if !strings.Contains(experiments, "## Observability") {
		t.Fatal("EXPERIMENTS.md has no Observability section")
	}
	for _, fam := range metrics.Families() {
		if !strings.Contains(experiments, "`"+fam+"`") {
			t.Errorf("EXPERIMENTS.md does not document metric family `%s`", fam)
		}
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		content := readDoc(t, doc)
		for _, token := range []string{"/metrics", "/hotcells", "-metrics", "-hotness-halflife"} {
			if !strings.Contains(content, token) {
				t.Errorf("%s does not mention %s", doc, token)
			}
		}
	}
	if !strings.Contains(readDoc(t, "README.md"), "## Observability") {
		t.Error("README.md has no Observability section")
	}
}

// TestDocsCIWorkflowWiring keeps the workflow and its checked-in smoke
// assert script consistent: the serving smoke must call
// scripts/ci-smoke-asserts.sh (not re-inlined one-liners), the script
// must exist, be executable and implement every subcommand the workflow
// invokes, and the leaderboard job, run cancellation, staticcheck binary
// cache and non-race allocation-gate and bit-identity step must stay
// wired.
func TestDocsCIWorkflowWiring(t *testing.T) {
	ci := readDoc(t, ".github/workflows/ci.yml")
	for _, token := range []string{
		"scripts/ci-smoke-asserts.sh",
		"-leaderboard",
		"-gate",
		"cancel-in-progress: true",
		"staticcheck-cache",
		"go test -count=1 -run 'AllocFree|TestExactInferenceBitIdentical' ./...",
	} {
		if !strings.Contains(ci, token) {
			t.Errorf("ci.yml does not contain %q", token)
		}
	}
	const script = "scripts/ci-smoke-asserts.sh"
	info, err := os.Stat(script)
	if err != nil {
		t.Fatalf("smoke assert script missing: %v", err)
	}
	if info.Mode()&0o111 == 0 {
		t.Errorf("%s is not executable", script)
	}
	src := readDoc(t, script)
	if !strings.HasPrefix(src, "#!") {
		t.Errorf("%s has no shebang", script)
	}
	for _, m := range regexp.MustCompile(`ci-smoke-asserts\.sh (\w+)`).FindAllStringSubmatch(ci, -1) {
		if !strings.Contains(src, m[1]+")") {
			t.Errorf("ci.yml invokes subcommand %q, which %s does not implement", m[1], script)
		}
	}
}

var mdLink = regexp.MustCompile(`\]\(([A-Za-z0-9_./-]+\.md)\)`)

func TestDocsRelativeLinksResolve(t *testing.T) {
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "SCENARIOS.md"} {
		content := readDoc(t, doc)
		for _, m := range mdLink.FindAllStringSubmatch(content, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http") {
				continue
			}
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s links to %s, which does not exist", doc, target)
			}
		}
	}
}

func TestDocsCrossLinked(t *testing.T) {
	// The cookbook must be reachable from the front door and the figure
	// catalogue, per the scenario engine's documentation contract.
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		if !strings.Contains(readDoc(t, doc), "SCENARIOS.md") {
			t.Errorf("%s does not link SCENARIOS.md", doc)
		}
	}
}
