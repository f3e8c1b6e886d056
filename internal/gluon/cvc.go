package gluon

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
)

// localCSR is one machine's edge share grouped by source: Srcs lists the
// sources with ≥1 local edge (ascending), Offsets delimits each source's
// destination run in Dsts.
type localCSR struct {
	Srcs    []graph.VertexID
	Offsets []int64
	Dsts    []graph.VertexID
}

// Dests returns the destinations of the i-th source.
func (l *localCSR) Dests(i int) []graph.VertexID {
	return l.Dsts[l.Offsets[i]:l.Offsets[i+1]]
}

// NumEdges returns the machine's local edge count.
func (l *localCSR) NumEdges() int64 { return int64(len(l.Dsts)) }

// gridShape picks the most square r×c factorization of p (r ≤ c).
func gridShape(p int) (r, c int) {
	r = 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			r = f
		}
	}
	return r, p / r
}

// buildLocalCSRs distributes g's edges to the machines of pt by the
// Cartesian vertex-cut D-Galois defaults to ("since it performs well at
// scale", paper §2.3) and builds each machine's local CSR. Machines form
// an r×c grid, and edge (u,v) is placed on the machine at (row of u's
// owner, column of v's owner), so both endpoints' proxies may be remote;
// the owners are pt's masters, which the sync layer shares.
func buildLocalCSRs(g *graph.Graph, pt *partition.Partition) []*localCSR {
	type rec struct{ src, dst graph.VertexID }
	p := pt.P
	perMachine := make([][]rec, p)
	_, cols := gridShape(p)
	for u := 0; u < g.NumVertices(); u++ {
		src := graph.VertexID(u)
		row := pt.Owner(src) / cols
		for _, dst := range g.OutNeighbors(src) {
			m := row*cols + pt.Owner(dst)%cols
			perMachine[m] = append(perMachine[m], rec{src, dst})
		}
	}
	out := make([]*localCSR, p)
	for m := 0; m < p; m++ {
		recs := perMachine[m]
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].src != recs[j].src {
				return recs[i].src < recs[j].src
			}
			return recs[i].dst < recs[j].dst
		})
		csr := &localCSR{}
		for _, r := range recs {
			if len(csr.Srcs) == 0 || csr.Srcs[len(csr.Srcs)-1] != r.src {
				csr.Srcs = append(csr.Srcs, r.src)
				csr.Offsets = append(csr.Offsets, int64(len(csr.Dsts)))
			}
			csr.Dsts = append(csr.Dsts, r.dst)
		}
		csr.Offsets = append(csr.Offsets, int64(len(csr.Dsts)))
		out[m] = csr
	}
	return out
}
