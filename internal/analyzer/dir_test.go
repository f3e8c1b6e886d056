package analyzer

import (
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeDir(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "bfs.go"), bfsInput)
	writeFile(t, filepath.Join(dir, "plain.go"), `package udf

func helper() int { return 1 }
`)
	writeFile(t, filepath.Join(dir, "sub", "pr.go"), `package sub

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func prSignal(ctx *core.DenseCtx[float64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		_ = u
	}
}
`)
	// Files the walker must skip. The _test.go file holds a loop-carried
	// UDF, so reading it changes both counts below; the other two do not
	// parse, so reading either fails the call.
	writeFile(t, filepath.Join(dir, "skipped_test.go"), bfsInput)
	writeFile(t, filepath.Join(dir, "testdata", "golden.go"), "this is not Go")
	writeFile(t, filepath.Join(dir, ".hidden", "x.go"), "also not Go")

	rep, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if signals := len(rep.Funcs); signals != 2 {
		t.Fatalf("found %d signal UDFs, want 2", signals)
	}
	if rep.Funcs[0].Path != filepath.Join(dir, "bfs.go") || rep.Funcs[1].Path != filepath.Join(dir, "sub", "pr.go") {
		t.Fatalf("analyzed %s and %s, want bfs.go and sub/pr.go", rep.Funcs[0].Path, rep.Funcs[1].Path)
	}
	if carried := len(rep.LoopCarriedFuncs()); carried != 1 {
		t.Fatalf("found %d loop-carried UDFs, want 1", carried)
	}
}

func TestAnalyzeDirRejectsBadFile(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "bad.go"), "not go at all")
	if _, err := AnalyzeDir(dir); err == nil {
		t.Fatal("unparseable file accepted")
	}
}

func TestAnalyzeDirMissing(t *testing.T) {
	if _, err := AnalyzeDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing directory accepted")
	}
}

// The analyzer must find the loop-carried UDF patterns in this
// repository's own algorithm sources — the same self-check the paper's
// tool performs on Gemini's applications.
func TestAnalyzeOwnAlgorithms(t *testing.T) {
	rep, err := AnalyzeDir("../algorithms")
	if err != nil {
		t.Fatal(err)
	}
	signals, carried := len(rep.Funcs), len(rep.LoopCarriedFuncs())
	if signals == 0 {
		t.Fatal("no signal UDFs found in internal/algorithms")
	}
	// BFS, MIS (veto+cover), K-core, K-means and sampling UDFs all break
	// out of their neighbor loops; PageRank's must not be flagged.
	if carried < 4 {
		t.Fatalf("only %d loop-carried UDFs found in internal/algorithms", carried)
	}
	for _, f := range rep.Funcs {
		if f.File == "pagerank.go" && f.LoopCarried {
			t.Fatalf("pagerank signal flagged as loop-carried: %+v", f)
		}
	}
}
