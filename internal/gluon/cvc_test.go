package gluon

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/seq"
)

func TestGridShape(t *testing.T) {
	for _, tc := range []struct{ p, r, c int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4}, {9, 3, 3}, {12, 3, 4}, {16, 4, 4}, {7, 1, 7},
	} {
		r, c := gridShape(tc.p)
		if r != tc.r || c != tc.c {
			t.Fatalf("gridShape(%d) = %d×%d, want %d×%d", tc.p, r, c, tc.r, tc.c)
		}
		if r*c != tc.p {
			t.Fatalf("gridShape(%d) does not factorize", tc.p)
		}
	}
}

// Property: every edge lands on exactly one machine and the local CSRs
// reconstruct the graph's edge multiset.
func TestQuickLocalCSRsPartitionEdges(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%8 + 1
		g := graph.Uniform(128, 768, seed)
		pt, err := partition.NewChunked(g, p, 0)
		if err != nil {
			return false
		}
		csrs := buildLocalCSRs(g, pt)
		type edge struct{ s, d graph.VertexID }
		seen := map[edge]int{}
		var total int64
		for _, csr := range csrs {
			total += csr.NumEdges()
			for i, u := range csr.Srcs {
				for _, v := range csr.Dests(i) {
					if !g.HasEdge(u, v) {
						return false
					}
					seen[edge{u, v}]++
				}
			}
		}
		if total != g.NumEdges() || int64(len(seen)) != g.NumEdges() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// CVC must place edge (u,v) on the machine at (row of owner(u), column
// of owner(v)).
func TestCVCPlacementRule(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 3)
	const p = 6
	pt, err := partition.NewChunked(g, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, cols := gridShape(p)
	csrs := buildLocalCSRs(g, pt)
	for m, csr := range csrs {
		for i, u := range csr.Srcs {
			for _, v := range csr.Dests(i) {
				want := (pt.Owner(u)/cols)*cols + pt.Owner(v)%cols
				if m != want {
					t.Fatalf("edge (%d,%d) on machine %d, want %d", u, v, m, want)
				}
			}
		}
	}
}

// The vertex-cut engine must reproduce the oracles on a square and a
// non-square grid.
func TestGluonPartitionKindsAgree(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(8, 8, graph.Graph500Params(), 9))
	const seed = 4
	want := seq.GreedyMIS(g, seq.MISColors(g.NumVertices(), seed))
	for _, p := range []int{4, 6} {
		t.Run(fmt.Sprintf("cvc/p=%d", p), func(t *testing.T) {
			e := mustEngine(t, g, p)
			got, err := MIS(e, seed)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
				}
			}
			root, _ := graph.LargestOutDegreeVertex(g)
			depth, err := BFS(e, root)
			if err != nil {
				t.Fatal(err)
			}
			ref := seq.TopDownBFS(g, root)
			for v := range depth {
				wantD := uint32(ref.Depth[v])
				if ref.Depth[v] < 0 {
					wantD = Inf
				}
				if depth[v] != wantD {
					t.Fatalf("vertex %d: depth %d, want %d", v, depth[v], wantD)
				}
			}
		})
	}
}
