package analyzer

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// instrumentSeeds is FuzzInstrument's seed corpus, in seed#N order.
var instrumentSeeds = []string{
	bfsInput,
	"package p\n",
	"not go",
	`package p

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func s(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) {
	for i := 0; i < len(srcs); i++ {
		switch srcs[i] {
		case 0:
			break
		default:
			if srcs[i] > 5 {
				break
			}
		}
	}
}
`,
	// Interprocedural shape: the neighbor slice escapes into a helper
	// whose loop exits early. The instrumenter must leave the UDF alone
	// (nothing it can rewrite) yet stay stable under re-instrumentation;
	// the analysis of the loaded package is what reports these.
	`package p

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func s(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	if first(srcs) >= 0 {
		ctx.Emit(uint32(dst))
	}
}

func first(srcs []graph.VertexID) int {
	for i := range srcs {
		if srcs[i] == 0 {
			return i
		}
	}
	return -1
}
`,
	// Aliased context and neighbor slice: the spelled names differ from
	// the parameters, and the break still gets its EmitDep.
	`package p

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func s(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	c := ctx
	ns := srcs
	for _, u := range ns {
		c.Edge()
		if u == dst {
			break
		}
	}
}
`,
	// Machine-local exit directive: must survive instrumentation
	// untouched.
	`package p

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func s(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		if u == dst {
			break //sgc:local
		}
	}
}
`,
	// Labeled exit: break outer leaves the neighbor loop from inside a
	// nested loop.
	`package p

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func s(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
outer:
	for _, u := range srcs {
		for _, h := range hot[0] {
			if h == u {
				ctx.Emit(uint32(u))
				break outer
			}
		}
	}
}
`,
	// Paper Listing 2: one exit instrumented by hand, the next forgotten,
	// and an EmitDep that is not the statement before its break. Both
	// breaks get their EmitDep; the accounting (no Edge) stays as written.
	`package p

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func s(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		if u == dst {
			ctx.EmitDep()
			ctx.Emit(uint32(u))
			break
		}
		if u == 0 {
			break
		}
	}
}
`,
	// The loop variable shadows the context's name (the fuzzer's find): the
	// rewriter can only spell the parameter, and must still know its own
	// output on the second pass.
	`package p

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func s(c *core.DenseCtx[uint32], srcs []graph.VertexID) {
	for c := 0; c < len(srcs); c++ {
		if srcs[c] == 0 {
			break
		}
	}
}
`,
}

// FuzzInstrument checks that instrumentation of arbitrary Go source never
// panics, that its output always parses when the input did, that it is a
// fixed point, and that it leaves no break exit for the checker to find.
func FuzzInstrument(f *testing.F) {
	for _, seed := range instrumentSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		out, ok := instrumentRoundTrip(t, src)
		if !ok {
			return
		}
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, "out.go", out, 0); err != nil {
			t.Fatalf("instrumented output does not parse: %v\ninput:\n%s\noutput:\n%s", err, src, out)
		}
		// Instrumentation is a fixed point: a second pass over valid
		// output must be a byte-identical no-op.
		again, _, err := Instrument("fuzz.go", out)
		if err != nil {
			t.Fatalf("second pass errored on own output: %v\noutput:\n%s", err, out)
		}
		if string(again) != string(out) {
			t.Fatalf("instrument not idempotent\ninput:\n%s\nfirst:\n%s\nsecond:\n%s", src, out, again)
		}
	})
}

// instrumentRoundTrip instruments src (ok is false when it does not
// parse) and checks the output with the analysis the checker runs: no
// break exit may be left uncovered, in a partly hand-instrumented UDF
// as in an untouched one.
func instrumentRoundTrip(t *testing.T, src string) (out []byte, ok bool) {
	t.Helper()
	out, before, err := Instrument("fuzz.go", []byte(src))
	if err != nil {
		return nil, false
	}
	after, err := Analyze("fuzz.go", out)
	if err != nil {
		t.Fatalf("instrumented output does not analyze: %v\ninput:\n%s\noutput:\n%s", err, src, out)
	}
	if len(after.Funcs) != len(before.Funcs) {
		t.Fatalf("instrumenting changed the set of signal UDFs: %d, then %d\ninput:\n%s\noutput:\n%s", len(before.Funcs), len(after.Funcs), src, out)
	}
	for _, f := range after.Funcs {
		for _, l := range f.Loops {
			if len(l.UncoveredExits) > len(l.UncoveredReturns) {
				t.Fatalf("%s: instrumented, yet the loop at line %d has an uncovered break (uncovered exits %v, returns %v)\ninput:\n%s\noutput:\n%s",
					f.Name, l.Line, l.UncoveredExits, l.UncoveredReturns, src, out)
			}
		}
	}
	return out, true
}

// TestInstrumentThenCheck is the round trip between the rewriter and the
// checker on every fixed input the tree has: the fuzz seeds (the aliased
// loop and the labeled break among them), the sgc golden fixture, and
// each algorithm source.
func TestInstrumentThenCheck(t *testing.T) {
	inputs := append([]string(nil), instrumentSeeds...)
	files, err := filepath.Glob(filepath.Join("..", "algorithms", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(files, filepath.Join("..", "..", "testdata", "sgc", "udfpkg", "udf.go")) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, string(src))
	}
	if len(inputs) < len(instrumentSeeds)+5 {
		t.Fatalf("only %d inputs: algorithm sources not found", len(inputs))
	}
	for _, src := range inputs {
		instrumentRoundTrip(t, src)
	}
}
