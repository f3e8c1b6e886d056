package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// evenStarts splits [0, n] into p roughly equal ascending boundaries.
func evenStarts(n, p int) []int {
	starts := make([]int, p+1)
	for q := 0; q <= p; q++ {
		starts[q] = q * n / p
	}
	return starts
}

// TestBlockedCSRAgreesWithFlat builds blocked views over generated
// graphs at several block sizes and partition counts and checks full
// agreement with the flat CSR via Validate, plus spot-checks the
// per-range aggregates.
func TestBlockedCSRAgreesWithFlat(t *testing.T) {
	graphs := map[string]*Graph{
		"rmat":     RMAT(9, 8, Graph500Params(), 7),
		"weighted": RandomWeights(RMAT(8, 8, Graph500Params(), 11), 3),
		"ring":     Ring(257),
		"star":     Star(100),
		"empty":    MustFromEdges(64, nil, BuildOptions{}),
	}
	for name, g := range graphs {
		for _, p := range []int{1, 2, 3, 5} {
			for _, bv := range []int{1, 7, 64, 4096} {
				starts := evenStarts(g.NumVertices(), p)
				bc, err := BuildBlockedCSR(g, 0, g.NumVertices(), bv, starts)
				if err != nil {
					t.Fatalf("%s p=%d bv=%d: %v", name, p, bv, err)
				}
				if err := bc.Validate(); err != nil {
					t.Fatalf("%s p=%d bv=%d: %v", name, p, bv, err)
				}
				var total int64
				for b := 0; b < bc.NumBlocks(); b++ {
					for q := 0; q < p; q++ {
						total += bc.RangeEdges(b, q)
					}
				}
				if total != g.NumEdges() {
					t.Fatalf("%s p=%d bv=%d: ranges cover %d edges, graph has %d", name, p, bv, total, g.NumEdges())
				}
			}
		}
	}
}

// TestBlockedCSRSubrange checks a view restricted to a machine's source
// range (the form the engine builds per node).
func TestBlockedCSRSubrange(t *testing.T) {
	g := RMAT(9, 8, Graph500Params(), 5)
	n := g.NumVertices()
	starts := evenStarts(n, 4)
	for q := 0; q < 4; q++ {
		bc, err := BuildBlockedCSR(g, starts[q], starts[q+1], 64, starts)
		if err != nil {
			t.Fatal(err)
		}
		if err := bc.Validate(); err != nil {
			t.Fatalf("machine %d: %v", q, err)
		}
		lo, hi := bc.SrcRange()
		if lo != starts[q] || hi != starts[q+1] {
			t.Fatalf("machine %d: source range [%d,%d)", q, lo, hi)
		}
		for v := lo; v < hi; v++ {
			deg := 0
			for qq := 0; qq < 4; qq++ {
				dsts, _ := bc.Row(VertexID(v), qq)
				deg += len(dsts)
			}
			if deg != g.OutDegree(VertexID(v)) {
				t.Fatalf("vertex %d: rows cover %d of %d edges", v, deg, g.OutDegree(VertexID(v)))
			}
		}
	}
}

// TestBlockedCSRDeterministic checks two builds over the same inputs
// produce identical offset arrays — the property that keeps graph
// fingerprints and mutation deltas independent of when blocking runs.
func TestBlockedCSRDeterministic(t *testing.T) {
	g := RMAT(8, 8, Graph500Params(), 9)
	starts := evenStarts(g.NumVertices(), 3)
	a, err := BuildBlockedCSR(g, 0, g.NumVertices(), 128, starts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBlockedCSR(g, 0, g.NumVertices(), 128, starts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.cut) != len(b.cut) || len(a.blockOff) != len(b.blockOff) {
		t.Fatal("offset arrays differ in size across builds")
	}
	for i := range a.cut {
		if a.cut[i] != b.cut[i] {
			t.Fatalf("cut[%d] differs across builds", i)
		}
	}
	for i := range a.blockOff {
		if a.blockOff[i] != b.blockOff[i] {
			t.Fatalf("blockOff[%d] differs across builds", i)
		}
	}
}

// TestBlockedCSRRejectsBadInputs covers the builder's error paths.
func TestBlockedCSRRejectsBadInputs(t *testing.T) {
	g := Ring(16)
	cases := []struct {
		name       string
		lo, hi, bv int
		starts     []int
	}{
		{"negative lo", -1, 16, 4, []int{0, 16}},
		{"hi past n", 0, 17, 4, []int{0, 16}},
		{"inverted range", 8, 4, 4, []int{0, 16}},
		{"zero block", 0, 16, 0, []int{0, 16}},
		{"no partitions", 0, 16, 4, []int{0}},
		{"starts not from zero", 0, 16, 4, []int{1, 16}},
		{"starts short of n", 0, 16, 4, []int{0, 15}},
		{"starts not monotone", 0, 16, 4, []int{0, 9, 5, 16}},
	}
	for _, tc := range cases {
		if _, err := BuildBlockedCSR(g, tc.lo, tc.hi, tc.bv, tc.starts); err == nil {
			t.Fatalf("%s: build accepted", tc.name)
		}
	}
}

// FuzzBlockedCSR drives the builder with random graphs, partition
// boundaries and block sizes: whatever it accepts must cover every edge
// exactly once and agree with the flat CSR (Validate checks both, plus
// order preservation). Seeds run as regular tests;
// `go test -fuzz=FuzzBlockedCSR ./internal/graph` explores further.
func FuzzBlockedCSR(f *testing.F) {
	f.Add(int64(1), uint16(32), uint16(40), uint8(2), uint8(4), false)
	f.Add(int64(2), uint16(1), uint16(0), uint8(1), uint8(1), true)
	f.Add(int64(3), uint16(100), uint16(900), uint8(7), uint8(3), false)
	f.Add(int64(4), uint16(257), uint16(50), uint8(3), uint8(200), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint16, pRaw, bvRaw uint8, weighted bool) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%1024 + 1
		m := int(mRaw)
		p := int(pRaw)%8 + 1
		bv := int(bvRaw)%300 + 1

		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{
				Src:    VertexID(rng.Intn(n)),
				Dst:    VertexID(rng.Intn(n)),
				Weight: rng.Float32(),
			}
		}
		g, err := FromEdges(n, edges, BuildOptions{Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}

		// Random ascending partition boundaries over [0, n].
		starts := make([]int, p+1)
		for q := 1; q < p; q++ {
			starts[q] = rng.Intn(n + 1)
		}
		starts[p] = n
		sort.Ints(starts)

		// Random source subrange, biased toward full coverage.
		lo, hi := 0, n
		if rng.Intn(3) == 0 {
			lo = rng.Intn(n + 1)
			hi = lo + rng.Intn(n+1-lo)
		}

		bc, err := BuildBlockedCSR(g, lo, hi, bv, starts)
		if err != nil {
			t.Fatalf("build rejected valid inputs: %v", err)
		}
		if err := bc.Validate(); err != nil {
			t.Fatalf("n=%d m=%d p=%d bv=%d [%d,%d): %v", n, m, p, bv, lo, hi, err)
		}
		var total int64
		for b := 0; b < bc.NumBlocks(); b++ {
			for q := 0; q < p; q++ {
				total += bc.RangeEdges(b, q)
			}
		}
		var want int64
		for v := lo; v < hi; v++ {
			want += int64(g.OutDegree(VertexID(v)))
		}
		if total != want {
			t.Fatalf("ranges cover %d edges, subrange has %d", total, want)
		}
	})
}
