package analysis_test

import (
	"bufio"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"xeonomp/internal/analysis"
)

// Fixture tests: each module under testdata/src seeds violations for one
// analyzer, annotated in-line as
//
//	offending code // want `substring of the expected message`
//
// The harness demands an exact match between annotations and diagnostics —
// every want must be hit on its own line, and every diagnostic must be
// wanted — so a fixture both proves the analyzer fires and pins the lines
// it must stay quiet on.

var wantRe = regexp.MustCompile("// want `([^`]*)`")

type expectation struct {
	file   string // fixture-relative path
	line   int
	substr string
	hit    bool
}

func loadFixture(t *testing.T, name string) (*analysis.Program, string) {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	prog, err := (&analysis.Loader{Root: root}).Load()
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	return prog, abs
}

// wantsIn scans every fixture source file for want annotations.
func wantsIn(t *testing.T, root string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &expectation{file: rel, line: line, substr: m[1]})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

func checkFixture(t *testing.T, name string, analyzers []analysis.Analyzer) {
	t.Helper()
	prog, root := loadFixture(t, name)
	diags := prog.Run(analyzers)
	wants := wantsIn(t, root)
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == rel && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s:%d: [%s] %s", rel, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
		}
	}
}

func TestTaint(t *testing.T) {
	checkFixture(t, "taint", []analysis.Analyzer{&analysis.NDTaint{}})
}

func TestDimension(t *testing.T) {
	checkFixture(t, "dimension", []analysis.Analyzer{&analysis.Dimension{}})
}

// TestUnitSafety runs dimension over the unitsafety fixture: the magic
// conversion-literal rule lives in dimension.
func TestUnitSafety(t *testing.T) {
	checkFixture(t, "unitsafety", []analysis.Analyzer{&analysis.Dimension{}})
}

func TestErrDrop(t *testing.T) {
	checkFixture(t, "errdrop", []analysis.Analyzer{&analysis.ErrDrop{}})
}

func TestCtxFlow(t *testing.T) {
	checkFixture(t, "ctxflow", []analysis.Analyzer{&analysis.CtxFlow{}})
}

func TestGoLeak(t *testing.T) {
	checkFixture(t, "goleak", []analysis.Analyzer{&analysis.GoLeak{}})
}

func TestLockOrder(t *testing.T) {
	checkFixture(t, "lockorder", []analysis.Analyzer{&analysis.LockOrder{}})
}

func TestCounterParity(t *testing.T) {
	checkFixture(t, "counterparity", []analysis.Analyzer{&analysis.CounterParity{}})
}

// TestHotAlloc and TestHotCall run hotloop over the allocation and the
// call-overhead fixtures.
func TestHotAlloc(t *testing.T) {
	checkFixture(t, "hotalloc", []analysis.Analyzer{&analysis.HotLoop{}})
}

func TestHotCall(t *testing.T) {
	checkFixture(t, "hotcall", []analysis.Analyzer{&analysis.HotLoop{}})
}

func TestBenchParity(t *testing.T) {
	checkFixture(t, "benchparity", []analysis.Analyzer{&analysis.BenchParity{}})
}

// TestHotAllocFixSafety pins which hotloop findings carry a machine
// fix: only trailing defers (deleting the keyword runs the call where
// it was queued) and zero-length makes (adding a capacity cannot change
// the length or produce cap < len). The fixture marks fix-carrying
// lines with "(fix)" after the want comment; every other finding must
// be report-only.
func TestHotAllocFixSafety(t *testing.T) {
	prog, root := loadFixture(t, "hotalloc")
	diags := prog.Run([]analysis.Analyzer{&analysis.HotLoop{}})
	if len(diags) == 0 {
		t.Fatal("hotalloc fixture produced no diagnostics")
	}
	lines := map[string][]string{}
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := lines[rel]; !ok {
			src, err := os.ReadFile(d.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			lines[rel] = strings.Split(string(src), "\n")
		}
		wantFix := strings.Contains(lines[rel][d.Pos.Line-1], "(fix)")
		if (d.Fix != nil) != wantFix {
			t.Errorf("%s:%d: has fix = %v, want %v: %s", rel, d.Pos.Line, d.Fix != nil, wantFix, d.Message)
		}
	}
}

// TestParallelRunDeterministic pins the parallel driver's contract:
// whatever the worker count, the merged, sorted diagnostics are
// identical — per-package fan-out must not leak scheduling order into
// output.
func TestParallelRunDeterministic(t *testing.T) {
	run := func(workers int) []analysis.Diagnostic {
		prog, _ := loadFixture(t, "hotalloc")
		prog.Workers = workers
		return prog.Run([]analysis.Analyzer{&analysis.HotLoop{}, &analysis.BenchParity{}})
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("fixture produced no diagnostics to compare")
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d diagnostics, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Pos != want[i].Pos || got[i].Analyzer != want[i].Analyzer ||
				got[i].Message != want[i].Message {
				t.Errorf("workers=%d: diagnostic %d differs:\n got %v\nwant %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestIgnoreDirectives pins the whole suppression lifecycle on one
// fixture: a valid ignore above the line and one on the line both
// suppress, a stale ignore is reported as unused, and the two malformed
// directives and the two naming retired analyzers are reported rather
// than half-obeyed.
func TestIgnoreDirectives(t *testing.T) {
	prog, _ := loadFixture(t, "ignores")
	diags := prog.Run([]analysis.Analyzer{&analysis.ErrDrop{}})

	for _, d := range diags {
		if d.Analyzer == "errdrop" {
			t.Errorf("errdrop diagnostic survived its ignore directive: %s", d)
		}
	}
	for _, substr := range []string{
		"malformed ignore",
		`unknown analyzer "nosuch"`,
		`unknown analyzer "hotcall"`,
		`unknown analyzer "unitsafety"`,
		"unused ignore directive",
	} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in %v", substr, diags)
		}
	}
	if len(diags) != 5 {
		t.Errorf("got %d diagnostics, want exactly 5: %v", len(diags), diags)
	}
}

// TestAnalyzersRegistered pins the registry: nine analyzers, stable
// unique names, non-empty docs — the contract -list and the ignore
// grammar rely on.
func TestAnalyzersRegistered(t *testing.T) {
	as := analysis.Analyzers()
	want := []string{"taint", "dimension", "errdrop", "ctxflow", "goleak", "lockorder", "counterparity", "hotloop", "benchparity"}
	if len(as) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(as), len(want))
	}
	for i, a := range as {
		if a.Name() != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name(), want[i])
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %q has no doc", a.Name())
		}
	}
}

// copyFixture clones a fixture module into a temp dir so -fix can rewrite
// it without touching the checked-in sources.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "src", name)
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func runOn(t *testing.T, root string) (*analysis.Program, []analysis.Diagnostic) {
	t.Helper()
	prog, err := (&analysis.Loader{Root: root}).Load()
	if err != nil {
		t.Fatalf("loading %s: %v", root, err)
	}
	return prog, prog.Run(analysis.Analyzers())
}

// TestFixIdempotency pins the autofix contract on the fixable fixture:
// every finding there carries a fix, applying the fixes leaves the module
// lint-clean, and a second apply pass proposes no further edits.
func TestFixIdempotency(t *testing.T) {
	root := copyFixture(t, "fixable")

	prog, diags := runOn(t, root)
	if len(diags) == 0 {
		t.Fatal("fixable fixture produced no findings")
	}
	for _, d := range diags {
		if d.Fix == nil {
			t.Errorf("finding without a fix in the fixable fixture: %s", d)
		}
	}

	fixed, err := analysis.ApplyFixes(prog, diags, os.ReadFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) == 0 {
		t.Fatal("ApplyFixes produced no file rewrites")
	}
	for name, content := range fixed {
		if err := os.WriteFile(name, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	prog2, diags2 := runOn(t, root)
	if len(diags2) != 0 {
		t.Fatalf("findings remain after applying fixes: %v", diags2)
	}
	again, err := analysis.ApplyFixes(prog2, diags2, os.ReadFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second fix pass still proposes edits in %d file(s)", len(again))
	}
}

// TestSortDiagnostics pins the total diagnostic order -json output and
// the CI problem matcher depend on: file, line, column, analyzer,
// message — every tie broken, so shuffled input always lands in one
// diff-stable order.
func TestSortDiagnostics(t *testing.T) {
	mk := func(file string, line, col int, analyzer, msg string) analysis.Diagnostic {
		var d analysis.Diagnostic
		d.Pos.Filename, d.Pos.Line, d.Pos.Column = file, line, col
		d.Analyzer, d.Message = analyzer, msg
		return d
	}
	want := []analysis.Diagnostic{
		mk("a.go", 1, 1, "benchparity", "analyzer order is lexical, not registry"),
		mk("a.go", 1, 1, "ctxflow", "first"),
		mk("a.go", 1, 1, "errdrop", "same spot, later analyzer"),
		mk("a.go", 1, 1, "errdrop", "same spot, same analyzer, later message"),
		mk("a.go", 1, 1, "hotloop", "same spot, lexically last analyzer"),
		mk("a.go", 1, 2, "ctxflow", "later column"),
		mk("a.go", 2, 1, "ctxflow", "later line"),
		mk("b.go", 1, 1, "ctxflow", "later file"),
	}
	// Reversed input: every comparison key must do its job to restore it.
	got := make([]analysis.Diagnostic, len(want))
	for i := range want {
		got[len(want)-1-i] = want[i]
	}
	analysis.SortDiagnostics(got)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestApplyFixesOverlap pins the overlap contract for fixes from two
// analyzers aimed at the same line: non-overlapping edits all apply,
// truly overlapping edits resolve deterministically to the earlier start
// regardless of the order diagnostics arrive in.
func TestApplyFixesOverlap(t *testing.T) {
	prog, root := loadFixture(t, "ignores")
	var file string
	var base int // token.Pos offset base of the first fixture file
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			file = prog.Fset.Position(f.Pos()).Filename
			base = int(f.FileStart)
			break
		}
		break
	}
	_ = root
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}

	edit := func(start, end int, text string) *analysis.SuggestedFix {
		return &analysis.SuggestedFix{Message: "test edit", Edits: []analysis.TextEdit{{
			Pos: token.Pos(base + start), End: token.Pos(base + end), NewText: text,
		}}}
	}
	diag := func(analyzer string, fix *analysis.SuggestedFix) analysis.Diagnostic {
		var d analysis.Diagnostic
		d.Pos.Filename = file
		d.Analyzer = analyzer
		d.Message = "synthetic"
		d.Fix = fix
		return d
	}

	// Same line, non-overlapping: an insertion at column 0 (ctxflow) and a
	// replacement at columns 3-5 (errdrop) must both land.
	both := []analysis.Diagnostic{
		diag("ctxflow", edit(0, 0, "A")),
		diag("errdrop", edit(3, 5, "BB")),
	}
	fixed, err := analysis.ApplyFixes(prog, both, os.ReadFile)
	if err != nil {
		t.Fatal(err)
	}
	wantBoth := "A" + string(src[:3]) + "BB" + string(src[5:])
	if got := string(fixed[file]); got != wantBoth {
		t.Errorf("non-overlapping same-line edits: got %q..., want %q...", got[:10], wantBoth[:10])
	}

	// Truly overlapping ranges: earlier start wins, and the outcome is the
	// same whichever analyzer's diagnostic comes first.
	overlapping := [][]analysis.Diagnostic{
		{diag("ctxflow", edit(0, 4, "X")), diag("errdrop", edit(2, 6, "Y"))},
		{diag("errdrop", edit(2, 6, "Y")), diag("ctxflow", edit(0, 4, "X"))},
	}
	wantOverlap := "X" + string(src[4:])
	for i, diags := range overlapping {
		fixed, err := analysis.ApplyFixes(prog, diags, os.ReadFile)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(fixed[file]); got != wantOverlap {
			t.Errorf("overlap order %d: got %q..., want earlier-start edit to win", i, got[:10])
		}
	}
}

// TestUnifiedDiff pins the diff renderer -diff is built on.
func TestUnifiedDiff(t *testing.T) {
	oldSrc := []byte("a\nb\nc\nd\ne\nf\ng\n")
	newSrc := []byte("a\nb\nc\nX\ne\nf\ng\n")
	d := analysis.UnifiedDiff("f.go", oldSrc, newSrc)
	for _, wantLine := range []string{"--- f.go", "+++ f.go", "-d", "+X", "@@ -1,7 +1,7 @@"} {
		if !strings.Contains(d, wantLine) {
			t.Errorf("diff missing %q:\n%s", wantLine, d)
		}
	}
	if analysis.UnifiedDiff("f.go", oldSrc, oldSrc) != "" {
		t.Error("identical contents produced a non-empty diff")
	}
}
