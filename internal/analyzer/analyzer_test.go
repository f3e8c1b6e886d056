package analyzer

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const bfsInput = `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// bfsSignal is the bottom-up BFS dense signal as a user writes it
// (paper Figure 1b): plain control flow with a break.
func bfsSignal(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, weights []float32) {
	for _, u := range srcs {
		if frontier.Get(int(u)) {
			ctx.Emit(uint32(u))
			break
		}
	}
}
`

const bfsWant = `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// bfsSignal is the bottom-up BFS dense signal as a user writes it
// (paper Figure 1b): plain control flow with a break.
func bfsSignal(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, weights []float32) {
	for _, u := range srcs {
		ctx.Edge()
		if frontier.Get(int(u)) {
			ctx.Emit(uint32(u))
			ctx.EmitDep()
			break
		}
	}
}
`

func carriedNames(l LoopReport) []string {
	var names []string
	for _, c := range l.Carried {
		names = append(names, c.Name)
	}
	return names
}

func TestAnalyzeDetectsLoopCarriedDependency(t *testing.T) {
	rep, err := Analyze("bfs.go", []byte(bfsInput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Funcs) != 1 {
		t.Fatalf("found %d signal funcs, want 1", len(rep.Funcs))
	}
	f := rep.Funcs[0]
	if f.Name != "bfsSignal" || f.CtxParam != "ctx" || f.NeighborParam != "srcs" {
		t.Fatalf("got %+v", f)
	}
	if !f.LoopCarried || f.Instrumented != InstrumentedNo {
		t.Fatalf("got %+v", f)
	}
	if len(f.Loops) != 1 || f.Loops[0].Breaks != 1 {
		t.Fatalf("loops: %+v", f.Loops)
	}
	if got := rep.LoopCarriedFuncs(); len(got) != 1 || got[0] != "bfsSignal" {
		t.Fatalf("LoopCarriedFuncs = %v", got)
	}
	if !strings.Contains(rep.String(), "loop-carried dependency") {
		t.Fatalf("report rendering: %q", rep.String())
	}
}

func TestInstrumentMatchesFigure5(t *testing.T) {
	got, rep, err := Instrument("bfs.go", []byte(bfsInput))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != bfsWant {
		t.Fatalf("instrumented output:\n%s\nwant:\n%s", got, bfsWant)
	}
	if !rep.Funcs[0].LoopCarried {
		t.Fatal("report lost dependency flag")
	}
	// Output must be parseable Go.
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "out.go", got, 0); err != nil {
		t.Fatalf("output does not parse: %v", err)
	}
}

func TestInstrumentIsIdempotent(t *testing.T) {
	once, _, err := Instrument("bfs.go", []byte(bfsInput))
	if err != nil {
		t.Fatal(err)
	}
	twice, rep, err := Instrument("bfs.go", once)
	if err != nil {
		t.Fatal(err)
	}
	if string(once) != string(twice) {
		t.Fatalf("second pass changed output:\n%s", twice)
	}
	if rep.Funcs[0].Instrumented != InstrumentedYes {
		t.Fatal("second pass did not flag instrumented function")
	}
}

func TestAnalyzeDataDependency(t *testing.T) {
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// kcoreSignal counts active neighbors, exiting at K — control AND data
// dependency (paper Figure 3b).
func kcoreSignal(ctx *core.DenseCtx[int64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	cnt := 0
	for _, u := range srcs {
		if active.Get(int(u)) {
			cnt++
			if cnt >= k {
				break
			}
		}
	}
	ctx.Emit(int64(cnt))
}
`
	rep, err := Analyze("kcore.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Funcs[0]
	if !f.LoopCarried {
		t.Fatal("missed control dependency")
	}
	if got := carriedNames(f.Loops[0]); len(got) != 1 || got[0] != "cnt" {
		t.Fatalf("carried vars = %v, want [cnt]", got)
	}
}

func TestAnalyzeNoDependency(t *testing.T) {
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// pagerankSignal has no break: no loop-carried dependency.
func pagerankSignal(ctx *core.DenseCtx[float64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	sum := 0.0
	for _, u := range srcs {
		sum += rank[u]
	}
	ctx.Emit(sum)
}
`
	rep, err := Analyze("pr.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Funcs[0]
	if f.LoopCarried {
		t.Fatal("false positive dependency")
	}
	if len(f.Loops) != 1 || f.Loops[0].Breaks != 0 {
		t.Fatalf("loops: %+v", f.Loops)
	}
	// Instrumentation still adds traversal accounting but no EmitDep.
	out, _, err := Instrument("pr.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "ctx.Edge()") {
		t.Fatal("Edge accounting missing")
	}
	if strings.Contains(string(out), "EmitDep") {
		t.Fatal("EmitDep inserted without dependency")
	}
}

func TestBreakBindingRules(t *testing.T) {
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func nested(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) {
	for _, u := range srcs {
		// A break inside a nested loop binds to the inner loop, not
		// the neighbor loop.
		for i := 0; i < 3; i++ {
			if i == 1 {
				break
			}
		}
		// A break inside a switch binds to the switch.
		switch u {
		case 0:
			break
		}
		_ = u
	}
}

func labeled(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) {
outer:
	for _, u := range srcs {
		// A labeled break leaves the neighbor loop, from any depth,
		// unless its label sits inside the loop's body.
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

func resumed(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) {
rounds:
	for r := 0; r < 2; r++ {
	nbrs:
		for _, u := range srcs {
			// A continue to an enclosing loop's label cuts the traversal
			// short like a break; a plain one, or one to the neighbor
			// loop's own label, goes on with it.
			if u == 0 {
				continue nbrs
			}
			if u == 1 {
				continue
			}
			for _, h := range hot[0] {
				if h == u {
					continue rounds
				}
			}
		}
	}
}
`
	rep, err := Analyze("nested.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Funcs) != 3 {
		t.Fatalf("funcs: %d", len(rep.Funcs))
	}
	if rep.Funcs[0].LoopCarried {
		t.Fatal("nested/switch breaks misattributed to the neighbor loop")
	}
	if f := rep.Funcs[1]; !f.LoopCarried || len(f.Loops) != 1 || f.Loops[0].Breaks != 1 {
		t.Fatalf("break outer must bind to the neighbor loop, break inner must not: %+v", f)
	}
	if f := rep.Funcs[2]; !f.LoopCarried || len(f.Loops) != 1 || f.Loops[0].Breaks != 1 {
		t.Fatalf("continue rounds must count as an exit of the neighbor loop, continue nbrs and plain continue must not: %+v", f)
	}
	out, _, err := Instrument("nested.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(out), "EmitDep") != 2 || !strings.Contains(string(out), "ctx.EmitDep()\n\t\t\t\tbreak outer") ||
		!strings.Contains(string(out), "ctx.EmitDep()\n\t\t\t\t\tcontinue rounds") {
		t.Fatalf("want two EmitDep, before break outer and continue rounds, none for the non-binding branches:\n%s", out)
	}
}

func TestBreakInsideSwitchCaseBindingToLoop(t *testing.T) {
	// A break in an if inside a case binds to the switch; but a break
	// in the loop body after the switch binds to the loop.
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func mixed(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) {
	for _, u := range srcs {
		if u == 5 {
			break
		}
		_ = u
	}
}
`
	rep, err := Analyze("mixed.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Funcs[0].LoopCarried {
		t.Fatal("direct break missed")
	}
}

func TestFunctionLiteralsAnalyzed(t *testing.T) {
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

var signal = func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		if frontier.Get(int(u)) {
			ctx.Emit(uint32(u))
			break
		}
	}
}
`
	rep, err := Analyze("lit.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Funcs) != 1 || rep.Funcs[0].Name != "<anonymous>" || !rep.Funcs[0].LoopCarried {
		t.Fatalf("got %+v", rep.Funcs)
	}
	out, _, err := Instrument("lit.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "ctx.EmitDep()") {
		t.Fatalf("literal not instrumented:\n%s", out)
	}
}

func TestNonSignalFunctionsIgnored(t *testing.T) {
	src := `package udf

func plain(a int, b []string) {
	for _, s := range b {
		if s == "" {
			break
		}
	}
}
`
	rep, err := Analyze("plain.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Funcs) != 0 {
		t.Fatalf("non-signal function analyzed: %+v", rep.Funcs)
	}
	out, _, err := Instrument("plain.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "EmitDep") || strings.Contains(string(out), "Edge()") {
		t.Fatal("non-signal function instrumented")
	}
}

func TestMultipleBreaksAllInstrumented(t *testing.T) {
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func multi(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) {
	for _, u := range srcs {
		if u == 1 {
			break
		}
		if u == 2 {
			break
		}
	}
}
`
	out, rep, err := Instrument("multi.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Funcs[0].Loops[0].Breaks != 2 {
		t.Fatalf("breaks = %d", rep.Funcs[0].Loops[0].Breaks)
	}
	if got := strings.Count(string(out), "ctx.EmitDep()"); got != 2 {
		t.Fatalf("%d EmitDep insertions, want 2:\n%s", got, out)
	}
}

func TestAnalyzeRejectsBadSource(t *testing.T) {
	if _, err := Analyze("bad.go", []byte("not go")); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, _, err := Instrument("bad.go", []byte("func {")); err == nil {
		t.Fatal("bad source accepted by Instrument")
	}
}

func TestSampleUDFCarriedPrefixSum(t *testing.T) {
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// sampleSignal walks the weight prefix sum — data dependency carried in
// the accumulator (paper Figure 3d).
func sampleSignal(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	weight := 0.0
	for _, u := range srcs {
		weight += weightOf(u)
		if weight >= r {
			ctx.Emit(uint32(u))
			break
		}
	}
}
`
	rep, err := Analyze("sample.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Funcs[0]
	if got := carriedNames(f.Loops[0]); !f.LoopCarried || len(got) != 1 || got[0] != "weight" {
		t.Fatalf("got %+v", f)
	}
}

func TestIndexLoopDetectedAndInstrumented(t *testing.T) {
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// indexed walks neighbors C-style, with parallel weights — the shape the
// weighted-sampling UDF takes.
func indexed(ctx *core.DenseCtx[uint32], srcs []graph.VertexID, ws []float32) {
	acc := 0.0
	for i := 0; i < len(srcs); i++ {
		acc += float64(ws[i])
		if acc >= r {
			ctx.Emit(uint32(srcs[i]))
			break
		}
	}
}
`
	rep, err := Analyze("idx.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Funcs) != 1 {
		t.Fatalf("funcs: %+v", rep.Funcs)
	}
	f := rep.Funcs[0]
	if !f.LoopCarried || len(f.Loops) != 1 {
		t.Fatalf("index loop missed: %+v", f)
	}
	if got := carriedNames(f.Loops[0]); len(got) != 1 || got[0] != "acc" {
		t.Fatalf("carried vars: %v", got)
	}
	out, _, err := Instrument("idx.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "ctx.EmitDep()") || !strings.Contains(string(out), "ctx.Edge()") {
		t.Fatalf("index loop not instrumented:\n%s", out)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "out.go", out, 0); err != nil {
		t.Fatalf("output does not parse: %v", err)
	}
}

func TestUnboundedForLoopIgnored(t *testing.T) {
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func other(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) {
	for i := 0; i < 10; i++ { // not a neighbor loop
		if i == 3 {
			break
		}
	}
}
`
	rep, err := Analyze("o.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Funcs[0].LoopCarried || len(rep.Funcs[0].Loops) != 0 {
		t.Fatalf("non-neighbor for loop misdetected: %+v", rep.Funcs[0])
	}
}

// TestInstrumentIdempotentOnTree re-instruments every shipped algorithm
// kernel: the first pass must be a byte-identical no-op (the tree is
// committed instrumented), and a second pass over the output must also
// be byte-identical — `sgc instrument -w` run twice never dirties a
// file. This is the regression fence for the idempotence contract.
func TestInstrumentIdempotentOnTree(t *testing.T) {
	dir := filepath.Join("..", "algorithms")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		once, _, err := Instrument(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(once) != string(src) {
			t.Errorf("%s: instrumenting the committed tree changed it — either the kernel is uninstrumented or the rewrite is not idempotent", name)
		}
		twice, _, err := Instrument(name, once)
		if err != nil {
			t.Fatalf("%s second pass: %v", name, err)
		}
		if string(twice) != string(once) {
			t.Errorf("%s: second instrument pass changed bytes", name)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no algorithm sources checked")
	}
}

// TestInstrumentRespectsLocalDirective pins the //sgc:local contract: a
// break declared machine-local (sampling's hierarchical fallback pick)
// must not get an EmitDep inserted, while an unannotated break in the
// same file still does.
func TestInstrumentRespectsLocalDirective(t *testing.T) {
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func s(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		if active.Get(int(u)) {
			break //sgc:local full local scan already done above
		}
	}
	for _, u := range srcs {
		if active.Get(int(u)) {
			break
		}
	}
}
`
	out, rep, err := Instrument("local.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(out), "ctx.EmitDep()"); n != 1 {
		t.Fatalf("want exactly 1 inserted EmitDep (the unannotated break), got %d:\n%s", n, out)
	}
	f := rep.Funcs[0]
	if len(f.Loops) != 2 {
		t.Fatalf("loops: %+v", f.Loops)
	}
	if f.Loops[0].Breaks != 0 || f.Loops[0].LocalExits != 1 {
		t.Fatalf("annotated loop miscounted: %+v", f.Loops[0])
	}
	if f.Loops[1].Breaks != 1 || f.Loops[1].LocalExits != 0 {
		t.Fatalf("plain loop miscounted: %+v", f.Loops[1])
	}
	// Idempotence across the directive: re-instrumenting must not touch
	// the annotated break either.
	twice, _, err := Instrument("local.go", out)
	if err != nil {
		t.Fatal(err)
	}
	if string(twice) != string(out) {
		t.Fatalf("re-instrument changed directive-bearing file:\n%s", twice)
	}
}
