package core

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
)

func mustCluster(t testing.TB, g *graph.Graph, opts Options) *Cluster {
	t.Helper()
	c, err := NewCluster(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// barrier blocks until every machine reaches it: an all-reduce of 0.
func barrier(w *Worker) error {
	_, err := w.AllReduceSum(0)
	return err
}

// buffersCases is the NumBuffers dimension of the matrix tests. The first
// two cells keep the labels they carried while the dimension was the scan
// generation — "legacy" framing was one dependency frame per (step,
// buffer group), which is what NumBuffers > 1 does on the one driver, and
// the binned scan's one frame per step is NumBuffers 1 — so test ids stay
// comparable across the retirement of that flag.
var buffersCases = []struct {
	label   string
	buffers int
}{{"legacy=false", 1}, {"legacy=true", 2}, {"B=3", 3}}

func TestClusterOptionValidation(t *testing.T) {
	g := graph.Ring(8)
	if _, err := NewCluster(g, Options{NumNodes: 0}); err == nil {
		t.Fatal("NumNodes=0 accepted")
	}
	if _, err := NewCluster(g, Options{NumNodes: 2, DepThreshold: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := NewCluster(g, Options{NumNodes: 2, Mode: Mode(99)}); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeSympleGraph.String() != "symplegraph" || ModeGemini.String() != "gemini" {
		t.Fatal("mode names wrong")
	}
	if Mode(7).String() == "" {
		t.Fatal("unknown mode name empty")
	}
}

func TestProcessVerticesSumsAcrossMachines(t *testing.T) {
	g := graph.Ring(200)
	for _, p := range []int{1, 2, 3, 5} {
		c := mustCluster(t, g, Options{NumNodes: p})
		sums := make([]int64, p)
		err := c.Run(func(w *Worker) error {
			local := w.ProcessVertices(func(v graph.VertexID) int64 { return int64(v) })
			lo, hi := w.MasterRange()
			if want := int64(hi-1+lo) * int64(hi-lo) / 2; local != want {
				t.Errorf("p=%d node %d: local sum %d, want %d over [%d,%d)", p, w.ID(), local, want, lo, hi)
			}
			s, err := w.AllReduceSum(local)
			sums[w.ID()] = s
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(199 * 200 / 2)
		for i, s := range sums {
			if s != want {
				t.Fatalf("p=%d node %d: sum %d, want %d", p, i, s, want)
			}
		}
	}
}

func TestProcessVerticesCoversExactlyOwnedRange(t *testing.T) {
	g := graph.Ring(130)
	c := mustCluster(t, g, Options{NumNodes: 3, Workers: 4})
	visited := bitset.New(130)
	err := c.Run(func(w *Worker) error {
		w.ProcessVertices(func(v graph.VertexID) int64 {
			if !visited.TestAndSetAtomic(int(v)) {
				t.Errorf("vertex %d visited twice", v)
			}
			return 1
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited.Count() != 130 {
		t.Fatalf("visited %d of 130", visited.Count())
	}
}

func TestSyncBitmapMergesMasterSegments(t *testing.T) {
	g := graph.Ring(300)
	c := mustCluster(t, g, Options{NumNodes: 4})
	results := make([]*bitset.Bitmap, 4)
	err := c.Run(func(w *Worker) error {
		b := bitset.New(300)
		lo, hi := w.MasterRange()
		for v := lo; v < hi; v += 2 { // every even offset within my range
			b.Set(v)
		}
		if err := w.SyncBitmap(b); err != nil {
			return err
		}
		results[w.ID()] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for node, b := range results {
		for other := 0; other < 4; other++ {
			lo, hi := c.Partition().Range(other)
			for v := lo; v < hi; v++ {
				want := (v-lo)%2 == 0
				if b.Get(v) != want {
					t.Fatalf("node %d: bit %d = %v, want %v", node, v, b.Get(v), want)
				}
			}
		}
	}
}

func TestAllGatherU32(t *testing.T) {
	g := graph.Ring(150)
	c := mustCluster(t, g, Options{NumNodes: 3})
	err := c.Run(func(w *Worker) error {
		arr := make([]uint32, 150)
		lo, hi := w.MasterRange()
		for v := lo; v < hi; v++ {
			arr[v] = uint32(v * 7)
		}
		if err := AllGather(w, arr); err != nil {
			return err
		}
		for v := 0; v < 150; v++ {
			if arr[v] != uint32(v*7) {
				t.Errorf("node %d: arr[%d] = %d", w.ID(), v, arr[v])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherF64(t *testing.T) {
	g := graph.Ring(100)
	c := mustCluster(t, g, Options{NumNodes: 4})
	err := c.Run(func(w *Worker) error {
		arr := make([]float64, 100)
		lo, hi := w.MasterRange()
		for v := lo; v < hi; v++ {
			arr[v] = float64(v) / 3
		}
		if err := AllGather(w, arr); err != nil {
			return err
		}
		for v := 0; v < 100; v++ {
			if arr[v] != float64(v)/3 {
				t.Errorf("node %d: arr[%d] = %g", w.ID(), v, arr[v])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanicsAsErrors(t *testing.T) {
	g := graph.Ring(64)
	c := mustCluster(t, g, Options{NumNodes: 1})
	err := c.Run(func(w *Worker) error {
		panic("boom")
	})
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
}

func TestRunStatsControlBytesCounted(t *testing.T) {
	g := graph.Ring(64)
	c := mustCluster(t, g, Options{NumNodes: 2})
	if err := c.Run(func(w *Worker) error { return barrier(w) }); err != nil {
		t.Fatal(err)
	}
	s := c.Stats().Totals
	if s.ControlBytes == 0 {
		t.Fatal("barrier produced no control traffic")
	}
	if s.UpdateBytes != 0 || s.DependencyBytes != 0 {
		t.Fatalf("unexpected traffic: %+v", s)
	}
	// Stats are per run: a second run should not accumulate the first.
	if err := c.Run(func(w *Worker) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Totals.ControlBytes; got != 0 {
		t.Fatalf("second run control bytes = %d, want 0", got)
	}
}

func TestRunStatsAdd(t *testing.T) {
	a := RunStats{EdgesTraversed: 1, UpdateBytes: 2, DependencyBytes: 3, ControlBytes: 4}
	b := RunStats{EdgesTraversed: 10, UpdateBytes: 20, DependencyBytes: 30, ControlBytes: 40}
	a.Add(b)
	if a.EdgesTraversed != 11 || a.TotalBytes() != 99 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestWorkerOwns(t *testing.T) {
	g := graph.Ring(128)
	c := mustCluster(t, g, Options{NumNodes: 2})
	err := c.Run(func(w *Worker) error {
		lo, hi := w.MasterRange()
		if !w.Owns(graph.VertexID(lo)) || (hi < 128 && w.Owns(graph.VertexID(hi))) {
			t.Errorf("node %d Owns wrong for range [%d,%d)", w.ID(), lo, hi)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
