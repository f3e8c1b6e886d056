package core

import (
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/comm"
	"repro/internal/graph"
)

func TestGatherU32CollectsAtRoot(t *testing.T) {
	g := graph.Ring(200)
	c := mustCluster(t, g, Options{NumNodes: 4})
	var rootCopy []uint32
	err := c.Run(func(w *Worker) error {
		arr := make([]uint32, 200)
		lo, hi := w.MasterRange()
		for v := lo; v < hi; v++ {
			arr[v] = uint32(v * 3)
		}
		if err := Gather(w, arr); err != nil {
			return err
		}
		if w.ID() == 0 {
			rootCopy = arr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 200; v++ {
		if rootCopy[v] != uint32(v*3) {
			t.Fatalf("root arr[%d] = %d", v, rootCopy[v])
		}
	}
}

func TestSyncBitmapSparseAndDenseForms(t *testing.T) {
	g := graph.Ring(512)
	c := mustCluster(t, g, Options{NumNodes: 4})
	// Sparse case: one bit per node. Dense case: every other bit.
	for _, density := range []int{97, 2} {
		results := make([]*bitset.Bitmap, 4)
		err := c.Run(func(w *Worker) error {
			b := bitset.New(512)
			lo, hi := w.MasterRange()
			for v := lo; v < hi; v += density {
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
		want := results[0]
		for node := 1; node < 4; node++ {
			if !results[node].Equal(want) {
				t.Fatalf("density %d: node %d bitmap differs", density, node)
			}
		}
		// Verify against the direct construction.
		check := bitset.New(512)
		for node := 0; node < 4; node++ {
			lo, hi := c.Partition().Range(node)
			for v := lo; v < hi; v += density {
				check.Set(v)
			}
		}
		if !want.Equal(check) {
			t.Fatalf("density %d: merged bitmap wrong", density)
		}
	}
}

func TestEncodeBitmapSegmentRoundTrip(t *testing.T) {
	b := bitset.New(256)
	for _, i := range []int{64, 65, 100, 127} {
		b.Set(i)
	}
	blob := appendBitmapSegment(nil, b, 64, 128)
	out := bitset.New(256)
	if err := applyBitmapSegment(out, 64, 128, blob); err != nil {
		t.Fatal(err)
	}
	for i := 64; i < 128; i++ {
		if out.Get(i) != b.Get(i) {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	// Dense form: fill the range.
	for i := 64; i < 128; i++ {
		b.Set(i)
	}
	blob = appendBitmapSegment(nil, b, 64, 128)
	if blob[0] != segDense {
		t.Fatalf("full segment encoded as form %d", blob[0])
	}
	out = bitset.New(256)
	if err := applyBitmapSegment(out, 64, 128, blob); err != nil {
		t.Fatal(err)
	}
	if out.CountSegment(64, 128) != 64 {
		t.Fatal("dense round trip lost bits")
	}
}

func TestApplyBitmapSegmentRejectsCorrupt(t *testing.T) {
	b := bitset.New(128)
	if err := applyBitmapSegment(b, 0, 64, nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if err := applyBitmapSegment(b, 0, 64, []byte{0x7f}); err == nil {
		t.Fatal("unknown form accepted")
	}
	if err := applyBitmapSegment(b, 0, 64, []byte{segSparse, 1, 2, 3}); err == nil {
		t.Fatal("ragged sparse accepted")
	}
	if err := applyBitmapSegment(b, 0, 64, []byte{segDense, 1, 2, 3}); err == nil {
		t.Fatal("short dense accepted")
	}
	// Sparse index outside the range.
	bad := []byte{segSparse, 200, 0, 0, 0}
	if err := applyBitmapSegment(b, 0, 64, bad); err == nil {
		t.Fatal("out-of-range sparse index accepted")
	}
}

// TestClusterWithLinkModel runs a full pass over a simulated interconnect
// and checks results stay exact while elapsed time reflects the link.
func TestClusterWithLinkModel(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 6)
	c := mustCluster(t, g, Options{
		NumNodes: 3,
		Mode:     ModeSympleGraph,
		Link:     &comm.LinkModel{Latency: time.Millisecond},
	})
	counts := make([]uint32, g.NumVertices())
	err := c.Run(func(w *Worker) error {
		err := ProcessEdgesDense(w, DenseParams[uint32]{
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for range srcs {
					ctx.Edge()
				}
				ctx.Emit(uint32(len(srcs)))
			},
			Slot: func(dst graph.VertexID, msg uint32) {
				counts[dst] += msg
			},
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got, want := counts[v], uint32(g.InDegree(graph.VertexID(v))); got != want {
			t.Fatalf("vertex %d: %d, want %d", v, got, want)
		}
	}
	if got := c.Stats().Totals.Elapsed; got < time.Millisecond {
		t.Fatalf("elapsed %v under a 1ms-latency link", got)
	}
}
