package gluon

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
)

// goldenRow is one cell of the D-Galois identity table: the exact work and
// sync traffic of one algorithm at one cluster size, plus a digest of
// everything the algorithm returned.
type goldenRow struct {
	edges, syncB, syncFrames, controlB int64
	digest                             uint64
}

// goldenCounters was pinned while gluon still ran its own goroutine-per-
// node runtime with hand-written reduce/broadcast send and receive loops.
// Every counter is a function of the CVC edge placement, the label
// records each round ships and the rounds run, so a runtime that
// reproduces the table scans the same local edges and ships the same
// frames with the same payloads; p = 6 is the non-square 2×3 grid.
var goldenCounters = map[string]goldenRow{
	"bfs/p2":    {13556, 11008, 24, 252, 0xf444d112aa2816c7},
	"bfs/p4":    {13556, 40680, 144, 756, 0xf444d112aa2816c7},
	"bfs/p6":    {13556, 64880, 360, 1260, 0xf444d112aa2816c7},
	"mis/p2":    {41488, 39344, 48, 840, 0x5230deb08f75fd24},
	"mis/p4":    {41488, 133552, 288, 2520, 0x5230deb08f75fd24},
	"mis/p6":    {41488, 216432, 720, 4200, 0x5230deb08f75fd24},
	"kcore/p2":  {98324, 43736, 32, 504, 0xa2b02949d9a41445},
	"kcore/p4":  {98324, 164672, 192, 1512, 0xa2b02949d9a41445},
	"kcore/p6":  {98324, 254976, 480, 2520, 0xa2b02949d9a41445},
	"kmeans/p2": {173648, 50032, 80, 1344, 0xc14240b1674f583},
	"kmeans/p4": {173648, 172144, 480, 4032, 0xc14240b1674f583},
	"kmeans/p6": {173648, 278872, 1200, 6720, 0xc14240b1674f583},
}

// goldenStats reads one run's counters off the engine.
func goldenStats(e *Engine) goldenRow {
	s := e.Stats().Totals
	return goldenRow{edges: s.EdgesTraversed, syncB: s.UpdateBytes, syncFrames: s.UpdateMessages, controlB: s.ControlBytes}
}

// runGolden runs algo on a fresh p-machine engine over g and returns its
// row.
func runGolden(t *testing.T, algo string, g *graph.Graph, p int) goldenRow {
	t.Helper()
	e := mustEngine(t, g, p)
	h := fnv.New64a()
	put := func(xs ...uint64) {
		for _, x := range xs {
			h.Write(binary.LittleEndian.AppendUint64(nil, x))
		}
	}
	bools := func(xs []bool) {
		for _, x := range xs {
			if x {
				put(1)
			} else {
				put(0)
			}
		}
	}
	var err error
	switch algo {
	case "bfs":
		root, _ := graph.LargestOutDegreeVertex(g)
		var depth []uint32
		if depth, err = BFS(e, root); err == nil {
			for _, d := range depth {
				put(uint64(d))
			}
		}
	case "mis":
		var in []bool
		if in, err = MIS(e, 7); err == nil {
			bools(in)
		}
	case "kcore":
		var in []bool
		if in, err = KCore(e, 4); err == nil {
			bools(in)
		}
	case "kmeans":
		res, kerr := KMeans(e, 8, 2, 7)
		if err = kerr; err == nil {
			for v := range res.Cluster {
				put(uint64(res.Cluster[v]), uint64(uint32(res.Dist[v])))
			}
			for _, cv := range res.Centers {
				put(uint64(cv))
			}
			for _, s := range res.DistSums {
				put(uint64(s))
			}
			put(uint64(res.Rounds))
		}
	default:
		t.Fatalf("unknown algorithm %q", algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	row := goldenStats(e)
	row.digest = h.Sum64()
	return row
}

// TestGluonGoldenCounters holds BFS, MIS, K-core and K-means × p ∈
// {2, 4, 6} to the pinned table.
func TestGluonGoldenCounters(t *testing.T) {
	base := graph.RMAT(11, 8, graph.Graph500Params(), 20)
	sym := graph.Symmetrize(base)
	for _, algo := range []string{"bfs", "mis", "kcore", "kmeans"} {
		for _, p := range []int{2, 4, 6} {
			name := fmt.Sprintf("%s/p%d", algo, p)
			t.Run(name, func(t *testing.T) {
				g := sym
				if algo == "bfs" {
					g = base
				}
				got := runGolden(t, algo, g, p)
				if got != goldenCounters[name] {
					t.Errorf("counters moved; got\n\t%q: {%d, %d, %d, %d, %#x},\npinned\n\t%+v",
						name, got.edges, got.syncB, got.syncFrames, got.controlB, got.digest, goldenCounters[name])
				}
			})
		}
	}
}
