package dsl

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/seq"
)

// bfsFold is bottom-up BFS declared as a fold: state is "found or not"
// (pure control), stop on the first frontier neighbor.
func bfsFold(frontier *bitset.Bitmap) FoldWhile[struct{}, uint32] {
	return FoldWhile[struct{}, uint32]{
		Init: func(graph.VertexID) struct{} { return struct{}{} },
		Step: func(s struct{}, _, u graph.VertexID, _ float32) (struct{}, bool) {
			return s, frontier.Get(int(u))
		},
		Emit: func(_ struct{}, _, u graph.VertexID) (uint32, bool) { return uint32(u), true },
	}
}

// TestFoldBFSIterationMatchesHandWritten runs one bottom-up step both
// ways and compares parents exactly.
func TestFoldBFSIterationMatchesHandWritten(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 3)
	n := g.NumVertices()
	frontier := bitset.New(n)
	for v := 0; v < n; v += 3 {
		frontier.Set(v)
	}
	for _, mode := range []core.Mode{core.ModeGemini, core.ModeSympleGraph} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(useDSL bool) []uint32 {
				c, err := core.NewCluster(g, core.Options{NumNodes: 4, Mode: mode, NumBuffers: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				parent := make([]uint32, n)
				for i := range parent {
					parent[i] = ^uint32(0)
				}
				slot := func(dst graph.VertexID, u uint32) {
					if parent[dst] == ^uint32(0) {
						parent[dst] = u
					}
				}
				err = c.Run(func(w *core.Worker) error {
					var params core.DenseParams[uint32]
					if useDSL {
						params = Params(bfsFold(frontier), slot, nil)
					} else {
						params = core.DenseParams[uint32]{
							Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
								for _, u := range srcs {
									ctx.Edge()
									if frontier.Get(int(u)) {
										ctx.Emit(uint32(u))
										ctx.EmitDep()
										break
									}
								}
							},
							Slot: slot,
						}
					}
					return core.ProcessEdgesDense(w, params)
				})
				if err != nil {
					t.Fatal(err)
				}
				return parent
			}
			hand := run(false)
			folded := run(true)
			for v := range hand {
				if hand[v] != folded[v] {
					t.Fatalf("vertex %d: hand %d, dsl %d", v, hand[v], folded[v])
				}
			}
		})
	}
}

// kcoreFold is the K-core counting kernel as a fold with carried int
// state in one lane.
func kcoreFold(active *bitset.Bitmap, k int) FoldWhile[int64, int64] {
	return FoldWhile[int64, int64]{
		Init: func(graph.VertexID) int64 { return 0 },
		Step: func(cnt int64, _, u graph.VertexID, _ float32) (int64, bool) {
			if active.Get(int(u)) {
				cnt++
				if cnt >= int64(k) {
					return cnt, true
				}
			}
			return cnt, false
		},
		Emit:    func(cnt int64, _, _ graph.VertexID) (int64, bool) { return cnt, true },
		Partial: func(cnt int64, _ graph.VertexID) (int64, bool) { return cnt, cnt > 0 },
		Lanes:   1,
		Save:    func(cnt int64, lanes []float64) { lanes[0] = float64(cnt) },
		Load:    func(lanes []float64) int64 { return int64(lanes[0]) },
	}
}

// TestFoldKCoreCountsMatchDegrees verifies carried data state through the
// fold: a single counting pass must reproduce active in-degrees capped
// at k, in every mode.
func TestFoldKCoreCountsMatchDegrees(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(8, 8, graph.Graph500Params(), 4))
	n := g.NumVertices()
	active := bitset.New(n)
	active.Fill()
	const k = 4
	for _, p := range []int{1, 3} {
		for _, mode := range []core.Mode{core.ModeGemini, core.ModeSympleGraph} {
			t.Run(fmt.Sprintf("p=%d/%v", p, mode), func(t *testing.T) {
				c, err := core.NewCluster(g, core.Options{NumNodes: p, Mode: mode, NumBuffers: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				counts := make([]int64, n)
				err = c.Run(func(w *core.Worker) error {
					params := Params(kcoreFold(active, k),
						func(dst graph.VertexID, partial int64) {
							counts[dst] += partial
						},
						func(dst graph.VertexID, cnt int64) {
							counts[dst] += cnt
						})
					return core.ProcessEdgesDense(w, params)
				})
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					deg := int64(g.InDegree(graph.VertexID(v)))
					got := counts[v]
					// Partial sums may exceed k when machines cap
					// independently (Gemini); the carried fold caps
					// globally. Either way the keep/remove verdict
					// agrees.
					if (got >= k) != (deg >= k) {
						t.Fatalf("vertex %d: count %d vs degree %d disagree at k=%d", v, got, deg, k)
					}
					if got > deg {
						t.Fatalf("vertex %d: count %d exceeds degree %d", v, got, deg)
					}
				}
			})
		}
	}
}

// sampleFold is the prefix-sum sampling kernel as a fold.
func sampleFold(seed uint64, round int, totalW []float64) FoldWhile[float64, uint32] {
	draw := seq.NewSampleDraw(seed, round)
	return FoldWhile[float64, uint32]{
		Init: func(graph.VertexID) float64 { return 0 },
		Step: func(acc float64, dst, u graph.VertexID, _ float32) (float64, bool) {
			acc += seq.VertexWeight(seed, u)
			return acc, acc >= draw.Threshold(dst, totalW[dst])
		},
		Emit:  func(_ float64, _, u graph.VertexID) (uint32, bool) { return uint32(u), true },
		Lanes: 1,
		Save:  func(acc float64, lanes []float64) { lanes[0] = acc },
		Load:  func(lanes []float64) float64 { return lanes[0] },
	}
}

// TestFoldSamplingMatchesOracle reproduces the exact-sampling semantics
// through the DSL under full tracking.
func TestFoldSamplingMatchesOracle(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 5)
	n := g.NumVertices()
	const seed, round = 21, 0
	c, err := core.NewCluster(g, core.Options{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: 0, NumBuffers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	order := seq.RingOrder(c.Partition())
	// W computed over the ring chain, as algorithms.Sample does.
	totalW := make([]float64, n)
	for v := 0; v < n; v++ {
		nbrs, _ := order(g, graph.VertexID(v))
		for _, u := range nbrs {
			totalW[v] += seq.VertexWeight(seed, u)
		}
	}
	pick := make([]uint32, n)
	for i := range pick {
		pick[i] = ^uint32(0)
	}
	err = c.Run(func(w *core.Worker) error {
		params := Params(sampleFold(seed, round, totalW),
			func(dst graph.VertexID, u uint32) {
				pick[dst] = u
			}, nil)
		return core.ProcessEdgesDense(w, params)
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := seq.SampleNeighbors(g, seed, round, order)
	for v := 0; v < n; v++ {
		if pick[v] != want[v] {
			t.Fatalf("vertex %d: pick %d, want %d", v, pick[v], want[v])
		}
	}
}
