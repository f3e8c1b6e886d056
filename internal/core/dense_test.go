package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/partition"
)

// sweep runs fn under a representative grid of engine configurations.
func sweep(t *testing.T, fn func(t *testing.T, opts Options)) {
	t.Helper()
	for _, p := range []int{1, 2, 4} {
		for _, mode := range []Mode{ModeGemini, ModeSympleGraph} {
			for _, cfg := range []struct {
				buffers, threshold, workers int
			}{
				{1, 0, 1},
				{2, 8, 2},
				{3, 0, 1},
			} {
				opts := Options{
					NumNodes:     p,
					Mode:         mode,
					DepThreshold: cfg.threshold,
					NumBuffers:   cfg.buffers,
					Workers:      cfg.workers,
				}
				name := fmt.Sprintf("p=%d/%v/B=%d/thr=%d/w=%d", p, mode, cfg.buffers, cfg.threshold, cfg.workers)
				t.Run(name, func(t *testing.T) { fn(t, opts) })
			}
		}
	}
}

// TestDenseInDegreeCount exercises a dense pass with no break: every
// source is scanned and partial counts are aggregated at the master. The
// result must equal the in-degree under every configuration.
func TestDenseInDegreeCount(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 21)
	sweep(t, func(t *testing.T, opts Options) {
		c := mustCluster(t, g, opts)
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
					counts[dst] += msg // masters own disjoint ranges
				},
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if got, want := counts[v], uint32(g.InDegree(graph.VertexID(v))); got != want {
				t.Fatalf("vertex %d: count %d, want %d", v, got, want)
			}
		}
		if got, want := c.Stats().Totals.EdgesTraversed, g.NumEdges(); got != want {
			t.Fatalf("edges traversed %d, want %d", got, want)
		}
	})
}

// ringOrderInNeighbors returns dst's incoming neighbors in the exact
// order the circulant schedule visits them: machine (owner-1), then
// (owner-2), ... then owner itself, ascending source ID within a machine.
func ringOrderInNeighbors(g *graph.Graph, pt *partition.Partition, dst graph.VertexID) []graph.VertexID {
	d := pt.Owner(dst)
	var out []graph.VertexID
	for j := 0; j < pt.P; j++ {
		m := ((d-1-j)%pt.P + pt.P) % pt.P
		lo, hi := pt.Range(m)
		for _, u := range g.InNeighbors(dst) {
			if int(u) >= lo && int(u) < hi {
				out = append(out, u)
			}
		}
	}
	return out
}

// TestDenseBreakFirstMatch is the bottom-up-BFS skeleton: the signal
// emits the first frontier neighbor and breaks. Under every mode and
// configuration the winner must be the first frontier neighbor in ring
// order (updates are applied in step order, so first-wins is
// deterministic), and SympleGraph must traverse no more edges than
// Gemini.
func TestDenseBreakFirstMatch(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 33)
	n := g.NumVertices()
	frontier := bitset.New(n)
	for v := 0; v < n; v += 3 {
		frontier.Set(v)
	}

	traversed := map[string]int64{}
	sweep(t, func(t *testing.T, opts Options) {
		c := mustCluster(t, g, opts)
		const none = ^uint32(0)
		parent := make([]uint32, n)
		for i := range parent {
			parent[i] = none
		}
		err := c.Run(func(w *Worker) error {
			err := ProcessEdgesDense(w, DenseParams[uint32]{
				Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					for _, u := range srcs {
						ctx.Edge()
						if frontier.Get(int(u)) {
							ctx.Emit(uint32(u))
							ctx.EmitDep()
							break
						}
					}
				},
				Slot: func(dst graph.VertexID, msg uint32) {
					if parent[dst] == none {
						parent[dst] = msg
					}
				},
				Breaks: true,
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			want := none
			for _, u := range ringOrderInNeighbors(g, c.Partition(), graph.VertexID(v)) {
				if frontier.Get(int(u)) {
					want = uint32(u)
					break
				}
			}
			if parent[v] != want {
				t.Fatalf("vertex %d: parent %d, want %d", v, parent[v], want)
			}
		}

		s := c.Stats().Totals
		key := fmt.Sprintf("p=%d", opts.NumNodes)
		if opts.Mode == ModeGemini {
			traversed[key] = s.EdgesTraversed
			if s.DependencyBytes != 0 {
				t.Fatalf("Gemini mode sent %d dependency bytes", s.DependencyBytes)
			}
		} else if gem, ok := traversed[key]; ok {
			if s.EdgesTraversed > gem {
				t.Fatalf("SympleGraph traversed %d edges, Gemini %d", s.EdgesTraversed, gem)
			}
			if opts.NumNodes > 1 && s.DependencyBytes == 0 {
				t.Fatal("SympleGraph sent no dependency bytes")
			}
		}
	})
}

// TestDenseDepPruningExactness: with full dependency tracking
// (threshold 0) every destination produces at most one update across the
// whole cluster — the loop-carried semantics is enforced precisely, so
// later machines do not even emit.
func TestDenseDepPruningExactness(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(8, 8, graph.Graph500Params(), 5))
	n := g.NumVertices()
	frontier := bitset.New(n)
	frontier.Fill()
	c := mustCluster(t, g, Options{NumNodes: 4, Mode: ModeSympleGraph, DepThreshold: 0, NumBuffers: 2})
	emitted := make([]int, n)
	err := c.Run(func(w *Worker) error {
		err := ProcessEdgesDense(w, DenseParams[uint32]{
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for _, u := range srcs {
					ctx.Edge()
					if frontier.Get(int(u)) {
						ctx.Emit(uint32(u))
						ctx.EmitDep()
						break
					}
				}
			},
			Slot: func(dst graph.VertexID, msg uint32) {
				emitted[dst]++ // master-only, disjoint
			},
			Breaks: true,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		want := 0
		if g.InDegree(graph.VertexID(v)) > 0 {
			want = 1
		}
		if emitted[v] != want {
			t.Fatalf("vertex %d received %d updates, want %d", v, emitted[v], want)
		}
	}
	// With every vertex in the frontier, each non-isolated destination
	// should cost exactly one edge traversal.
	var nonIsolated int64
	for v := 0; v < n; v++ {
		if g.InDegree(graph.VertexID(v)) > 0 {
			nonIsolated++
		}
	}
	if got := c.Stats().Totals.EdgesTraversed; got != nonIsolated {
		t.Fatalf("edges traversed %d, want %d", got, nonIsolated)
	}
}

// TestDenseDataLane verifies float64 data-dependency propagation: each
// machine accumulates its local source count into the carried lane, and
// the master's Finalize sees the full in-degree for tracked vertices
// while untracked vertices fall back to partial-count updates. The pass
// declares no break, so its frames hold the lane alone: 8 B per tracked
// vertex per segment plus the frame header. Declaring no lane either, the
// same UDF finds every destination untracked: no dependency frame, no
// Finalize, and the counts still add up.
func TestDenseDataLane(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 77)
	n := g.NumVertices()
	const frameHeader = 13 // comm's accounted per-message header
	for _, threshold := range []int{0, 8} {
		for _, mode := range []Mode{ModeGemini, ModeSympleGraph} {
			for _, p := range []int{1, 3, 4} {
				t.Run(fmt.Sprintf("thr=%d/%v/p=%d", threshold, mode, p), func(t *testing.T) {
					for _, lanes := range []int{1, 0} {
						c := mustCluster(t, g, Options{
							NumNodes:     p,
							Mode:         mode,
							DepThreshold: threshold,
							NumBuffers:   2,
						})
						counts := make([]int64, n)
						err := c.Run(func(w *Worker) error {
							err := ProcessEdgesDense(w, DenseParams[int64]{
								Signal: func(ctx *DenseCtx[int64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
									if ctx.Tracked() {
										acc := ctx.DepFloat(0)
										for range srcs {
											ctx.Edge()
											acc++
										}
										ctx.SetDepFloat(0, acc)
									} else {
										for range srcs {
											ctx.Edge()
										}
										ctx.Emit(int64(len(srcs)))
									}
								},
								Slot: func(dst graph.VertexID, msg int64) {
									counts[dst] += msg
								},
								Finalize: func(dst graph.VertexID, skip bool, data []float64) {
									if lanes == 0 {
										t.Errorf("Finalize ran for %d in a pass that carries nothing", dst)
									}
									counts[dst] += int64(data[0])
								},
								Lanes: lanes,
							})
							return err
						})
						if err != nil {
							t.Fatal(err)
						}
						for v := 0; v < n; v++ {
							if got, want := counts[v], int64(g.InDegree(graph.VertexID(v))); got != want {
								t.Fatalf("Lanes %d, vertex %d: %d, want %d", lanes, v, got, want)
							}
						}
						s := c.Stats().Totals
						var frames, bytes int64
						if mode == ModeSympleGraph && p > 1 && lanes > 0 {
							// Each partition's tracked ranges reach it from
							// the p-1 other machines, one frame per range.
							frames = int64(p-1) * DepSegments(c.class.Highs, 2)
							for _, h := range c.class.Highs {
								bytes += int64(p-1) * 8 * int64(len(h))
							}
							bytes += frameHeader * frames
						}
						if s.DependencyMessages != frames || s.DependencyBytes != bytes {
							t.Fatalf("Lanes %d: %d dependency frames of %d B in all, want %d of %d B",
								lanes, s.DependencyMessages, s.DependencyBytes, frames, bytes)
						}
					}
				})
			}
		}
	}
}

// TestDenseCappedCount verifies a lane-carrying destination that breaks:
// each pass counts active in-degrees capped at k, stopping at k with Emit
// and EmitDep and otherwise carrying the count, so a tracked destination
// whose ring breaks reaches Finalize with skip set, and only one whose
// ring completes adds its carried count there. Every count is at least k
// exactly when the in-degree is, never above it (partial sums may pass k
// when machines cap independently, as untracked ones do), and a tracked
// destination's is exactly min(in-degree, k).
func TestDenseCappedCount(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(8, 8, graph.Graph500Params(), 4))
	n := g.NumVertices()
	const k = 4
	for _, p := range []int{1, 3} {
		for _, mode := range []Mode{ModeGemini, ModeSympleGraph} {
			t.Run(fmt.Sprintf("p=%d/%v", p, mode), func(t *testing.T) {
				c := mustCluster(t, g, Options{NumNodes: p, Mode: mode, NumBuffers: 2})
				counts := make([]int64, n)
				// Which destinations reached Finalize, and which of those with
				// their skip bit set (masters own disjoint ranges).
				tracked, skipped := make([]bool, n), make([]bool, n)
				err := c.Run(func(w *Worker) error {
					return ProcessEdgesDense(w, DenseParams[int64]{
						Signal: func(ctx *DenseCtx[int64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
							cnt := int64(ctx.DepFloat(0))
							for range srcs {
								ctx.Edge()
								if cnt++; cnt >= k {
									ctx.Emit(cnt)
									ctx.EmitDep()
									return
								}
							}
							if ctx.Tracked() {
								ctx.SetDepFloat(0, float64(cnt))
							} else if cnt > 0 {
								ctx.Emit(cnt)
							}
						},
						Slot: func(dst graph.VertexID, msg int64) {
							counts[dst] += msg
						},
						Finalize: func(dst graph.VertexID, skip bool, data []float64) {
							tracked[dst], skipped[dst] = true, skip
							if !skip {
								counts[dst] += int64(data[0])
							}
						},
						Breaks: true,
						Lanes:  1,
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				sawSkip := false
				for v := 0; v < n; v++ {
					got, deg := counts[v], int64(g.InDegree(graph.VertexID(v)))
					if (got >= k) != (deg >= k) || got > deg {
						t.Fatalf("vertex %d: count %d against in-degree %d at k=%d", v, got, deg, k)
					}
					if tracked[v] && got != min(deg, k) {
						t.Fatalf("tracked vertex %d: count %d, want min(in-degree %d, k=%d)", v, got, deg, k)
					}
					sawSkip = sawSkip || skipped[v]
				}
				if mode == ModeSympleGraph && p > 1 && !sawSkip {
					t.Fatal("no tracked destination reached Finalize with its skip bit set")
				}
			})
		}
	}
}

// TestDenseActiveDstFilter holds the destination filter to a hand-computed
// answer: under {no filter, Active, Except, both} × both modes ×
// NumBuffers {1, 2, 3} × {1, 2, 4} machines × {1, 2} workers, a pass that
// counts in-neighbors must deliver exactly in-degree(v) to
// every destination the filter lets through and nothing to the rest,
// through updates and through Finalize alike, and traverse exactly the
// edges into the destinations it visits. A filter of the wrong length is
// an error, not a panic.
func TestDenseActiveDstFilter(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 11)
	n := g.NumVertices()
	active, except := bitset.New(n), bitset.New(n)
	for v := 0; v < n; v++ {
		if v%3 != 0 {
			active.Set(v)
		}
		if v%5 == 0 || v%64 > 40 {
			except.Set(v)
		}
	}
	filters := []struct {
		name           string
		active, except *bitset.Bitmap
	}{{"none", nil, nil}, {"active", active, nil}, {"except", nil, except}, {"both", active, except}}
	for _, f := range filters {
		for _, mode := range []Mode{ModeGemini, ModeSympleGraph} {
			for _, bc := range buffersCases {
				for _, p := range []int{1, 2, 4} {
					for _, workers := range []int{1, 2} {
						name := fmt.Sprintf("%s/%v/%s/p=%d/w=%d", f.name, mode, bc.label, p, workers)
						t.Run(name, func(t *testing.T) {
							c := mustCluster(t, g, Options{NumNodes: p, Mode: mode,
								Workers: workers, DepThreshold: 8, NumBuffers: bc.buffers})
							counts := make([]int64, n)
							filtered := func(v int) bool {
								return (f.active != nil && !f.active.Get(v)) || (f.except != nil && f.except.Get(v))
							}
							err := c.Run(func(w *Worker) error {
								err := ProcessEdgesDense(w, DenseParams[int64]{
									Active: f.active,
									Except: f.except,
									Signal: func(ctx *DenseCtx[int64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
										if filtered(int(dst)) {
											t.Errorf("signal ran for filtered vertex %d", dst)
										}
										for range srcs {
											ctx.Edge()
										}
										if ctx.Tracked() {
											ctx.SetDepFloat(0, ctx.DepFloat(0)+float64(len(srcs)))
										} else {
											ctx.Emit(int64(len(srcs)))
										}
									},
									Slot: func(dst graph.VertexID, msg int64) {
										counts[dst] += msg // masters own disjoint ranges
									},
									Finalize: func(dst graph.VertexID, _ bool, data []float64) {
										if filtered(int(dst)) {
											t.Errorf("finalize ran for filtered vertex %d", dst)
										}
										counts[dst] += int64(data[0])
									},
									Lanes: 1,
								})
								return err
							})
							if err != nil {
								t.Fatal(err)
							}
							var edges int64
							for v := 0; v < n; v++ {
								want := int64(g.InDegree(graph.VertexID(v)))
								if filtered(v) {
									want = 0
								}
								if counts[v] != want {
									t.Fatalf("vertex %d: counted %d in-neighbors, want %d", v, counts[v], want)
								}
								edges += want
							}
							if got := c.Stats().Totals.EdgesTraversed; got != edges {
								t.Fatalf("traversed %d edges, the visited destinations have %d", got, edges)
							}
						})
					}
				}
			}
		}
	}

	c := mustCluster(t, g, Options{NumNodes: 2})
	for _, params := range []DenseParams[uint32]{{Active: bitset.New(n - 1)}, {Except: bitset.New(n + 64)}} {
		err := c.Run(func(w *Worker) error {
			err := ProcessEdgesDense(w, params)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "destination filter") {
			t.Fatalf("wrong-length filter: got %v, want a destination-filter error", err)
		}
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDenseSkippedVerticesCounted checks that the VerticesSkipped stat
// moves when dependency bits prune whole mirror signal executions.
func TestDenseSkippedVerticesCounted(t *testing.T) {
	// A star's hub has in-edges from every partition; with the whole
	// frontier set, the first ring machine breaks and all later machines
	// skip the hub.
	g := graph.Star(1 << 10)
	frontier := bitset.New(g.NumVertices())
	frontier.Fill()
	c := mustCluster(t, g, Options{NumNodes: 4, Mode: ModeSympleGraph, DepThreshold: 32})
	err := c.Run(func(w *Worker) error {
		err := ProcessEdgesDense(w, DenseParams[uint32]{
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for _, u := range srcs {
					ctx.Edge()
					if frontier.Get(int(u)) {
						ctx.Emit(uint32(u))
						ctx.EmitDep()
						break
					}
				}
			},
			Slot:   func(graph.VertexID, uint32) {},
			Breaks: true,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats().Totals
	if s.VerticesSkipped == 0 {
		t.Fatalf("no skipped vertices recorded: %+v", s)
	}
}

// TestGroupBounds holds groupCut to what both ends of a dependency
// segment rely on: range 0 starts at 0, range B at T, cuts never go back,
// and interior cuts are word-aligned unless clamped to T (which leaves
// the following ranges empty).
func TestGroupBounds(t *testing.T) {
	for _, tc := range []struct{ T, B int }{{0, 1}, {0, 3}, {1, 1}, {64, 2}, {100, 3}, {1000, 4}, {63, 8}, {1 << 31, maxNumBuffers}} {
		if lo, hi := groupCut(tc.T, tc.B, 0), groupCut(tc.T, tc.B, tc.B); lo != 0 || hi != tc.T {
			t.Fatalf("T=%d B=%d: ranges span [%d, %d)", tc.T, tc.B, lo, hi)
		}
		for g := 1; g <= tc.B; g++ {
			prev, cut := groupCut(tc.T, tc.B, g-1), groupCut(tc.T, tc.B, g)
			if cut < prev {
				t.Fatalf("T=%d B=%d: cut %d = %d after %d", tc.T, tc.B, g, cut, prev)
			}
			if g < tc.B && cut%64 != 0 && cut != tc.T {
				t.Fatalf("T=%d B=%d: interior cut %d unaligned", tc.T, tc.B, cut)
			}
		}
	}
}

// TestCirculantScheduleIsPermutation validates the paper's Figure 7
// properties of the schedule formula the engine uses: in each step the
// machines process distinct partitions, and over all steps every (machine,
// partition) pair occurs exactly once.
func TestCirculantScheduleIsPermutation(t *testing.T) {
	for p := 1; p <= 8; p++ {
		pairSeen := map[[2]int]int{}
		for j := 0; j < p; j++ {
			partSeen := map[int]bool{}
			for m := 0; m < p; m++ {
				d := (m + 1 + j) % p
				if partSeen[d] {
					t.Fatalf("p=%d step %d: partition %d processed twice", p, j, d)
				}
				partSeen[d] = true
				pairSeen[[2]int{m, d}]++
			}
		}
		if len(pairSeen) != p*p {
			t.Fatalf("p=%d: %d pairs covered, want %d", p, len(pairSeen), p*p)
		}
		// The master's own block is processed in the final step.
		for m := 0; m < p; m++ {
			if d := (m + 1 + (p - 1)) % p; d != m {
				t.Fatalf("p=%d: machine %d processes %d in last step", p, m, d)
			}
		}
	}
}
