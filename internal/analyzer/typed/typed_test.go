package typed

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyzer"
)

// shared is the one loader of this test binary (the module is found by
// walking up from the working directory): the Loader memoizes by import
// path and every fixture lives in its own temp dir, so internal/core,
// internal/graph and the stdlib behind them are type-checked once, not
// once per test.
var shared *Loader

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	if shared == nil {
		l, err := NewLoader(Config{})
		if err != nil {
			t.Fatal(err)
		}
		shared = l
	}
	return shared
}

// loadFixture writes src as a single-file package in a temp dir and
// loads it with imports resolving against the real module.
func loadFixture(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := sharedLoader(t).LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

const header = `package fixture

import (
	"repro/internal/core"
	"repro/internal/graph"
)

var frontier interface{ Get(int) bool }
var _ = graph.VertexID(0)
var _ core.Mode
`

func TestResolvedTypeDiscrimination(t *testing.T) {
	// A local generic type also named DenseCtx resolves, in the loaded
	// package and in the isolated file alike, to a type that is not
	// internal/core's: both reject it. The genuine parameter is found by
	// resolved type in the package and by spelling in the isolated file,
	// where the import does not resolve.
	src := header + `
type DenseCtx[M any] struct{}

func impostor(ctx *DenseCtx[uint32], srcs []graph.VertexID) {
	for _, u := range srcs {
		if frontier.Get(int(u)) {
			break
		}
	}
}

func genuine(c *core.DenseCtx[uint32], others []graph.VertexID) {
	for _, u := range others {
		if frontier.Get(int(u)) {
			break
		}
	}
}
`
	syn, err := analyzer.Analyze("fixture.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	synNames := map[string]bool{}
	for _, f := range syn.Funcs {
		synNames[f.Name] = true
	}
	if synNames["impostor"] || !synNames["genuine"] {
		t.Fatalf("isolated pass funcs = %+v, want exactly [genuine]", syn.Funcs)
	}

	rep := AnalyzePackage(loadFixture(t, src))
	if len(rep.Funcs) != 1 || rep.Funcs[0].Name != "genuine" {
		t.Fatalf("typed pass funcs = %+v, want exactly [genuine]", rep.Funcs)
	}
	f := rep.Funcs[0]
	if !f.LoopCarried || f.Instrumented != analyzer.InstrumentedNo {
		t.Fatalf("genuine: %+v", f)
	}
	if f.MsgType != "uint32" {
		t.Fatalf("msg type = %q, want uint32", f.MsgType)
	}
}

func TestAliasedContextAndNeighbors(t *testing.T) {
	// The context and the neighbor slice both flow through local
	// aliases, which resolve inside the file: the isolated pass and the
	// loaded package agree on the loop and on its coverage.
	src := header + `
func aliased(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	c := ctx
	ns := srcs
	for _, u := range ns {
		c.Edge()
		if frontier.Get(int(u)) {
			c.EmitDep()
			break
		}
	}
}
`
	syn, err := analyzer.Analyze("fixture.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(syn.Funcs) != 1 {
		t.Fatalf("isolated pass funcs: %+v", syn.Funcs)
	}
	if f := syn.Funcs[0]; len(f.Loops) != 1 || f.Loops[0].Breaks != 1 || f.Instrumented != analyzer.InstrumentedYes {
		t.Fatalf("isolated pass lost the aliased loop or its EmitDep: %+v", f)
	}

	rep := AnalyzePackage(loadFixture(t, src))
	if len(rep.Funcs) != 1 {
		t.Fatalf("typed funcs: %+v", rep.Funcs)
	}
	f := rep.Funcs[0]
	if len(f.Loops) != 1 || f.Loops[0].Breaks != 1 {
		t.Fatalf("aliased loop not found: %+v", f)
	}
	if !f.LoopCarried || f.Instrumented != analyzer.InstrumentedYes {
		t.Fatalf("aliased EmitDep not recognized: %+v", f)
	}
}

// TestInterproceduralHelperBreak is the acceptance fixture: the UDF has
// no loop of its own — it hands the neighbor slice to a helper whose
// loop returns early. The isolated pass reports no loop-carried
// dependency; the loaded package must.
func TestInterproceduralHelperBreak(t *testing.T) {
	src := header + `
func udf(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	if firstActive(srcs) >= 0 {
		ctx.Emit(uint32(dst))
	}
}

func firstActive(srcs []graph.VertexID) int {
	for i, u := range srcs {
		if frontier.Get(int(u)) {
			return i
		}
	}
	return -1
}
`
	syn, err := analyzer.Analyze("fixture.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(syn.Funcs) != 1 {
		t.Fatalf("isolated pass funcs: %+v", syn.Funcs)
	}
	if syn.Funcs[0].LoopCarried {
		t.Fatalf("isolated pass should not see the helper break (it analyzes one function at a time): %+v", syn.Funcs[0])
	}

	rep := AnalyzePackage(loadFixture(t, src))
	var udf *analyzer.FuncReport
	for i := range rep.Funcs {
		if rep.Funcs[i].Name == "udf" {
			udf = &rep.Funcs[i]
		}
	}
	if udf == nil {
		t.Fatalf("typed funcs: %+v", rep.Funcs)
	}
	if !udf.LoopCarried {
		t.Fatalf("typed pass missed the interprocedural break: %+v", udf)
	}
	if len(udf.InterBreaks) == 0 || udf.InterBreaks[0].Callee != "firstActive" || udf.InterBreaks[0].Covered {
		t.Fatalf("inter breaks: %+v", udf.InterBreaks)
	}
	if udf.Instrumented != analyzer.InstrumentedNo {
		t.Fatalf("instrumented = %s, want no", udf.Instrumented)
	}
}

func TestHelperChainAndCoverage(t *testing.T) {
	// Two-hop helper chain; the inner helper emits the dependency
	// itself before returning, so the exit is covered.
	src := header + `
func udf(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	scan(ctx, srcs)
}

func scan(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) bool {
	return inner(ctx, srcs)
}

func inner(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) bool {
	for _, u := range srcs {
		if frontier.Get(int(u)) {
			ctx.EmitDep()
			return true
		}
	}
	return false
}
`
	rep := AnalyzePackage(loadFixture(t, src))
	var udf *analyzer.FuncReport
	for i := range rep.Funcs {
		if rep.Funcs[i].Name == "udf" {
			udf = &rep.Funcs[i]
		}
	}
	if udf == nil || !udf.LoopCarried {
		t.Fatalf("chain break missed: %+v", rep.Funcs)
	}
	for _, ib := range udf.InterBreaks {
		if !ib.Covered {
			t.Fatalf("covered helper reported uncovered: %+v", udf.InterBreaks)
		}
	}
	if udf.Instrumented != analyzer.InstrumentedYes {
		t.Fatalf("instrumented = %s, want yes", udf.Instrumented)
	}
}

func TestCarriedVarAccessKinds(t *testing.T) {
	src := header + `
func kcoreish(ctx *core.DenseCtx[int64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	var cnt int64
	var last graph.VertexID
	for _, u := range srcs {
		if frontier.Get(int(u)) {
			cnt++
			last = u
			if cnt >= 3 {
				ctx.EmitDep()
				break
			}
		}
	}
	ctx.Emit(cnt)
	_ = last
}
`
	rep := AnalyzePackage(loadFixture(t, src))
	if len(rep.Funcs) != 1 || len(rep.Funcs[0].Loops) != 1 {
		t.Fatalf("funcs: %+v", rep.Funcs)
	}
	got := map[string]analyzer.CarriedVar{}
	for _, c := range rep.Funcs[0].Loops[0].Carried {
		got[c.Name] = c
	}
	if c := got["cnt"]; c.Access != "readwrite" || c.Type != "int64" {
		t.Fatalf("cnt = %+v", c)
	}
	if c := got["last"]; c.Access != "write" {
		t.Fatalf("last = %+v (want write-only)", c)
	}
}

func TestReturnInLoopIsEarlyExit(t *testing.T) {
	src := header + `
func early(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) {
	for _, u := range srcs {
		if frontier.Get(int(u)) {
			return
		}
	}
}
`
	rep := AnalyzePackage(loadFixture(t, src))
	f := rep.Funcs[0]
	if !f.LoopCarried || f.Loops[0].Returns != 1 || f.Instrumented != analyzer.InstrumentedNo {
		t.Fatalf("return-in-loop: %+v", f)
	}
}

// TestLabeledBreakIsEarlyExit: a labeled break that leaves the neighbor
// loop — from a nested loop, through the loop's own label — is a break
// of that loop; one whose label sits inside the body is not.
func TestLabeledBreakIsEarlyExit(t *testing.T) {
	src := header + `
var hot [][]graph.VertexID

func labeled(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) {
outer:
	for _, u := range srcs {
	inner:
		for _, h := range hot[0] {
			switch {
			case h == u:
				ctx.Emit(uint32(u))
				break outer
			case h == 0:
				break inner
			}
		}
	}
}
`
	rep := AnalyzePackage(loadFixture(t, src))
	f := rep.Funcs[0]
	if !f.LoopCarried || len(f.Loops) != 1 || f.Loops[0].Breaks != 1 || f.Instrumented != analyzer.InstrumentedNo {
		t.Fatalf("break outer: %+v", f)
	}
	if got := f.Loops[0].UncoveredExits; len(got) != 1 || len(f.Loops[0].UncoveredReturns) != 0 {
		t.Fatalf("uncovered exits = %v (returns %v), want the one labeled break", got, f.Loops[0].UncoveredReturns)
	}
}

func TestPartialInstrumentation(t *testing.T) {
	src := header + `
func partial(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) {
	for _, u := range srcs {
		if u == 1 {
			ctx.EmitDep()
			break
		}
		if u == 2 {
			break
		}
	}
}
`
	rep := AnalyzePackage(loadFixture(t, src))
	f := rep.Funcs[0]
	if f.Instrumented != analyzer.InstrumentedPartial {
		t.Fatalf("instrumented = %s, want partial (the Listing 2 failure class): %+v", f.Instrumented, f)
	}
	if len(f.Loops[0].UncoveredExits) != 1 {
		t.Fatalf("uncovered exits: %+v", f.Loops[0])
	}
}

// TestRealAlgorithmsPackage loads the repo's own UDFs: every signal
// function in internal/algorithms must analyze as fully instrumented —
// the framework's own kernels obey the invariant sgvet enforces.
func TestRealAlgorithmsPackage(t *testing.T) {
	loader := sharedLoader(t)
	pkg, err := loader.LoadDir(filepath.Join(loader.ModuleRoot(), "internal", "algorithms"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors loading internal/algorithms: %v", pkg.TypeErrors)
	}
	rep := AnalyzePackage(pkg)
	if len(rep.Funcs) == 0 {
		t.Fatal("no signal UDFs found in internal/algorithms")
	}
	carried := 0
	for _, f := range rep.Funcs {
		if f.Instrumented == analyzer.InstrumentedNo || f.Instrumented == analyzer.InstrumentedPartial {
			t.Errorf("uninstrumented UDF in tree: %s (%s:%d) state=%s", f.Name, f.File, f.Line, f.Instrumented)
		}
		if f.LoopCarried {
			carried++
		}
	}
	if carried == 0 {
		t.Fatal("expected at least one loop-carried UDF (kcore, bfs, mis, sampling)")
	}
}

func TestLoadPatternsWildcard(t *testing.T) {
	pkgs, err := sharedLoader(t).LoadPatterns("./internal/analyzer/...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.ImportPath)
	}
	want := map[string]bool{
		"repro/internal/analyzer":       false,
		"repro/internal/analyzer/typed": false,
	}
	for _, p := range paths {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Fatalf("pattern expansion missed %s (got %v)", p, paths)
		}
	}
}
