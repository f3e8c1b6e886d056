package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

func TestParseMode(t *testing.T) {
	if m, err := ParseMode("symplegraph"); err != nil || m != core.ModeSympleGraph {
		t.Fatalf("symplegraph: %v %v", m, err)
	}
	if m, err := ParseMode("gemini"); err != nil || m != core.ModeGemini {
		t.Fatalf("gemini: %v %v", m, err)
	}
	if _, err := ParseMode("giraph"); err == nil || !strings.Contains(err.Error(), "-mode") {
		t.Fatalf("bad mode error: %v", err)
	}
}

func TestGraphSpecLoad(t *testing.T) {
	var s GraphSpec
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.Register(fs)
	if err := fs.Parse([]string{"-rmat", "8,4,7"}); err != nil {
		t.Fatal(err)
	}
	g, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1<<8 {
		t.Fatalf("vertices %d", g.NumVertices())
	}

	s.RMAT = "8,4"
	if _, err := s.Load(); err == nil || !strings.Contains(err.Error(), "-rmat") {
		t.Fatalf("bad spec error: %v", err)
	}
}

// TestGraphSpecLoadsEitherFormat writes one weighted graph as sggen's
// binary and text files and loads each through -graph: both must give
// the graph's vertices and edges, weights included.
func TestGraphSpecLoadsEitherFormat(t *testing.T) {
	g := graph.RandomWeights(graph.RMAT(8, 4, graph.Graph500Params(), 7), 7)
	dir := t.TempDir()
	for name, write := range map[string]func(io.Writer, *graph.Graph) error{
		"g.sg":  graph.WriteBinary,
		"g.txt": graph.WriteEdgeListText,
	} {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f, g); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := (&GraphSpec{Path: path}).Load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumVertices() != g.NumVertices() || !slices.Equal(got.Edges(), g.Edges()) {
			t.Fatalf("%s: loaded %v, wrote %v", name, got, g)
		}
	}
}

func TestObsStartClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	o := Obs{TracePath: path}
	if err := o.Start("test"); err != nil {
		t.Fatal(err)
	}
	if o.Tracer == nil || o.Registry == nil {
		t.Fatal("tracer/registry not allocated")
	}
	o.Tracer.Record(0, obs.PhaseBarrier, 0, 0, 0, o.Tracer.Epoch(), 1000)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "traceEvents") {
		t.Fatalf("trace file:\n%s", raw)
	}

	// Disabled observability is a no-op.
	var off Obs
	if err := off.Start("test"); err != nil || off.Tracer != nil {
		t.Fatalf("disabled Start: %v %v", err, off.Tracer)
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestErrorReport(t *testing.T) {
	stall := &core.StallError{Node: 2, Phase: obs.PhaseDepWait, From: 1, Kind: comm.KindDependency, Tag: 7, Timeout: time.Second}
	cases := []struct {
		err  error
		code int
		want string
	}{
		// errors.As must see through wrapping on every class.
		{fmt.Errorf("run: %w", stall), ExitStall, "node 2"},
		{fmt.Errorf("run: %w", &comm.CrashError{Node: 1, Superstep: 10}), ExitCrash, "crash"},
		{&comm.ProtocolError{Node: 0, From: 1, WantTag: 3, GotTag: 4}, ExitProtocol, "protocol"},
		{&core.PoisonedError{Cause: errors.New("boom")}, ExitPoisoned, "Reset"},
		{&comm.ClosedError{Node: 0, From: 1}, ExitPeerLost, "peer lost"},
		{&comm.TimeoutError{Node: 0, From: 1, Timeout: time.Second}, ExitPeerLost, "timeout"},
		{fmt.Errorf("deadline: %w", context.DeadlineExceeded), ExitCancelled, "cancelled"},
		{errors.New("unclassified"), ExitFailure, "unclassified"},
	}
	for _, c := range cases {
		code, msg := ErrorReport(c.err)
		if code != c.code {
			t.Errorf("ErrorReport(%v) code = %d, want %d", c.err, code, c.code)
		}
		if !strings.Contains(msg, c.want) {
			t.Errorf("ErrorReport(%v) msg = %q, want substring %q", c.err, msg, c.want)
		}
	}
	// The stall report carries the structured context an operator needs.
	_, msg := ErrorReport(stall)
	for _, frag := range []string{"node 2", "awaiting node 1", "tag=7", "-stall-timeout"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("stall message %q missing %q", msg, frag)
		}
	}
}
