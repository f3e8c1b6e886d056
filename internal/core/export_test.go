package core

import (
	"runtime"

	"repro/internal/graph"
)

// DepSegments returns how many dependency segments one ring hop of a
// dense pass moves at NumBuffers B, by the driver's own cuts: one per
// non-empty range of each partition's tracked index space (highs is a
// DegreeClass's Highs). Shared by the span-count test in this package and
// the external identity matrix.
func DepSegments(highs [][]graph.VertexID, B int) int64 {
	var n int64
	for _, h := range highs {
		for g := 0; g < B; g++ {
			if groupCut(len(h), B, g) < groupCut(len(h), B, g+1) {
				n++
			}
		}
	}
	return n
}

// Derived returns everything a cluster lays out from its graph — the
// graph, partition, degree class and per-machine layouts with their
// blocked CSRs — for field-for-field identity tests.
func Derived(c *Cluster) []any { return []any{c.g, c.part, c.class, c.layouts} }

// FreshDerived returns what NewCluster derives over g with c's options,
// built afresh rather than adopted from a live cluster, in Derived's
// order.
func FreshDerived(c *Cluster, g *graph.Graph) []any {
	d := &derivation{}
	if err := d.build(c.derivationKey(g), c.localNodes()); err != nil {
		panic(err)
	}
	return []any{d.g, d.part, d.class, d.layouts}
}

// LiveDerivations counts the derivations a NewCluster could adopt.
func LiveDerivations() int {
	derivations.Lock()
	defer derivations.Unlock()
	return len(derivations.m)
}

// NewGeminiClassifiedAt is NewCluster in ModeGemini with the degree
// class built at threshold instead of DefaultDepThreshold.
func NewGeminiClassifiedAt(g *graph.Graph, opts Options, threshold int) (*Cluster, error) {
	opts.Mode = ModeGemini
	c, err := NewCluster(g, opts)
	if err != nil {
		return nil, err
	}
	key := c.derivationKey(g)
	key.threshold = threshold
	d, err := acquire(key, c.localNodes())
	if err != nil {
		c.Close()
		return nil, err
	}
	c.derivation.release()
	c.derivation = d
	return c, nil
}

// LiveHeap returns the heap in use once two collections have emptied
// the sync.Pools' victim caches too: what the live objects hold.
func LiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
