package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// TestSparsePushCounts pushes one message along every out-edge of a
// frontier and checks each destination master accumulates exactly its
// frontier in-neighbor count.
func TestSparsePushCounts(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 13)
	n := g.NumVertices()
	inFrontier := func(v int) bool { return v%4 == 0 }
	for _, p := range []int{1, 2, 5} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("p=%d/w=%d", p, workers), func(t *testing.T) {
				c := mustCluster(t, g, Options{NumNodes: p, Workers: workers})
				counts := make([]int64, n)
				sent := make([]int64, p)
				err := c.Run(func(w *Worker) error {
					lo, hi := w.MasterRange()
					var frontier []graph.VertexID
					for v := lo; v < hi; v++ {
						if inFrontier(v) {
							frontier = append(frontier, graph.VertexID(v))
						}
					}
					red, err := ProcessEdgesSparse(w, SparseParams[uint32]{
						Frontier: frontier,
						Signal: func(ctx *SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
							for _, d := range dsts {
								ctx.Edge()
								ctx.EmitTo(d, uint32(src))
							}
						},
						Slot: func(dst graph.VertexID, msg uint32) {
							counts[dst]++
						},
					})
					sent[w.ID()] = red
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				var want int64
				for v := 0; v < n; v++ {
					wantV := int64(0)
					for _, u := range g.InNeighbors(graph.VertexID(v)) {
						if inFrontier(int(u)) {
							wantV++
						}
					}
					want += wantV
					if counts[v] != wantV {
						t.Fatalf("vertex %d: %d messages, want %d", v, counts[v], wantV)
					}
				}
				for i, got := range sent {
					if got != want {
						t.Fatalf("node %d: pass returned %d records emitted, want %d", i, got, want)
					}
				}
				// Edge traversals equal the frontier's out-degree sum.
				var frontierOut int64
				for v := 0; v < n; v++ {
					if inFrontier(v) {
						frontierOut += int64(g.OutDegree(graph.VertexID(v)))
					}
				}
				if got := c.Stats().Totals.EdgesTraversed; got != frontierOut {
					t.Fatalf("edges traversed %d, want %d", got, frontierOut)
				}
			})
		}
	}
}

// TestSparseEmptyFrontier: a pass over a globally empty frontier still
// sends every peer its frame — the 16-byte header alone, count and least,
// 29 bytes on the wire — returns 0 and a least of +Inf on every node, and
// agrees on that without a collective: no Barrier span.
func TestSparseEmptyFrontier(t *testing.T) {
	g := graph.Ring(128)
	for _, transport := range []string{"mem", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			tr := obs.NewTracer()
			opts := Options{NumNodes: 3, Tracer: tr}
			if transport == "tcp" {
				opts.Endpoints = tcpEndpoints(t, 3)
			}
			c := mustCluster(t, g, opts)
			err := c.Run(func(w *Worker) error {
				least := math.Inf(1)
				emitted, err := ProcessEdgesSparse(w, SparseParams[uint32]{
					Frontier: nil,
					Signal: func(*SparseCtx[uint32], graph.VertexID, []graph.VertexID, []float32) {
						t.Error("signal ran with empty frontier")
					},
					Slot:  func(graph.VertexID, uint32) {},
					Least: &least,
				})
				if emitted != 0 || !math.IsInf(least, 1) {
					t.Errorf("node %d: emitted %d, least %g", w.ID(), emitted, least)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			s := c.Stats()
			for _, ps := range s.Phases {
				if ps.Phase == obs.PhaseBarrier && ps.Hist.Count > 0 {
					t.Fatalf("node %d recorded %d Barrier spans", ps.Node, ps.Hist.Count)
				}
			}
			if got, want := s.Totals.UpdateBytes, int64(3*2*(13+16)); got != want || updHeader != 16 {
				t.Fatalf("update bytes %d, want %d: a bare %d-byte count and least behind each 13-byte frame header",
					got, want, updHeader)
			}
		})
	}
}

// TestSparseLeastAgreement: every node returns the same minimum over each
// machine's own contribution and the values its scan reported through
// SparseCtx.Least, whichever scan range reported them — scans fork at
// Workers 2 on this graph's four source blocks per machine.
func TestSparseLeastAgreement(t *testing.T) {
	g := graph.RMAT(15, 2, graph.Graph500Params(), 5)
	for _, transport := range []string{"mem", "tcp"} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w=%d", transport, workers), func(t *testing.T) {
				const p = 2
				c := mustCluster(t, g, Options{NumNodes: p, Workers: workers, Endpoints: freshEndpoints(t, transport, p)})
				got := make([]float64, p)
				err := c.Run(func(w *Worker) error {
					least := float64(1e6 + w.ID()) // above every scan report
					_, err := ProcessEdgesSparse(w, SparseParams[uint32]{
						Frontier: localFrontier(w, func(int) bool { return true }),
						Signal: func(ctx *SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
							if w.ID() == 1 { // node 1's smallest report comes from its last source
								ctx.Least(float64(2*g.NumVertices()) - float64(src))
							}
							ctx.Least(math.NaN())
						},
						Slot:  func(graph.VertexID, uint32) {},
						Least: &least,
					})
					got[w.ID()] = least
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				_, hi := c.Partition().Range(1)
				last := hi - 1
				for g.OutDegree(graph.VertexID(last)) == 0 {
					last--
				}
				want := float64(2*g.NumVertices() - last)
				for node, l := range got {
					if l != want {
						t.Fatalf("node %d: least %g, want %g", node, l, want)
					}
				}
			})
		}
	}
}

// TestBadUpdateFrameIsProtocolError: a malformed update frame — shorter
// than the sparse header, a record for a vertex the receiver does not
// own, a torn trailing record, more records than the count, a NaN least
// (which would stall a loop that advances on the agreed minimum) — fails
// the receiving node with a *comm.ProtocolError naming the stream, on
// both transports, instead of panicking it or dropping the bytes. Node 1
// puts the frame where node 0's pass awaits its own.
func TestBadUpdateFrameIsProtocolError(t *testing.T) {
	g := graph.Ring(128)                                                                        // node 0 owns [0, 64), node 1 [64, 128)
	record := func(dst uint32) []byte { return binary.LittleEndian.AppendUint32(nil, dst)[:8] } // a uint32 record: 4 + 4 bytes
	header := func(n uint64, least float64) []byte {                                            // count, then least
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, n), math.Float64bits(least))
	}
	count := func(n uint64) []byte { return header(n, math.Inf(1)) }
	cases := []struct {
		name    string
		dense   bool
		payload []byte
		reason  string
	}{
		{"sparse/short", false, count(0)[:15], "shorter than its 16-byte header"},
		{"sparse/unowned", false, append(count(1), record(127)...), "does not own"},
		{"sparse/torn", false, append(count(1), 0, 0, 0), "not a whole number"},
		{"sparse/undercounted", false, append(count(0), record(1)...), "more records than its count"},
		{"sparse/nan-least", false, append(header(1, math.NaN()), record(1)...), "least is NaN"},
		{"dense/unowned", true, record(127), "does not own"},
		{"dense/torn", true, append(record(1), 9), "not a whole number"},
	}
	for _, transport := range []string{"mem", "tcp"} {
		for _, tc := range cases {
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				opts := Options{NumNodes: 2, Mode: ModeGemini}
				if transport == "tcp" {
					opts.Endpoints = tcpEndpoints(t, 2)
				}
				c := mustCluster(t, g, opts)
				err := c.Run(func(w *Worker) error {
					if w.ID() == 1 {
						tag := int32(0) // the sparse pass's one tag
						if tc.dense {
							tag = 2 // after p·B dependency tags: node 1's update to node 0 in step 0
						}
						return w.ep.SendBufs(0, comm.KindUpdate, tag, comm.Buffers{append(bufpool.Get(len(tc.payload))[:0], tc.payload...)})
					}
					signal := func(*DenseCtx[uint32], graph.VertexID, []graph.VertexID, []float32) {}
					if tc.dense {
						return ProcessEdgesDense(w, DenseParams[uint32]{Signal: signal, Slot: func(graph.VertexID, uint32) {}})
					}
					_, err := ProcessEdgesSparse(w, SparseParams[uint32]{
						Signal: func(*SparseCtx[uint32], graph.VertexID, []graph.VertexID, []float32) {},
						Slot:   func(graph.VertexID, uint32) {}})
					return err
				})
				var pe *comm.ProtocolError
				if !errors.As(err, &pe) {
					t.Fatalf("got %v, want a *comm.ProtocolError", err)
				}
				if pe.Node != 0 || pe.From != 1 || pe.Kind != comm.KindUpdate || !strings.Contains(pe.Reason, tc.reason) {
					t.Fatalf("got %v, want node 0's update stream from node 1 rejected for %q", pe, tc.reason)
				}
			})
		}
	}
}

// TestSparseFrontierMustAscend: a frontier that is not strictly ascending
// — descending, or with a vertex listed twice — fails the pass on every
// node with an error naming the offending pair, before anything is
// signalled or sent; there is no second scan to fall back to.
func TestSparseFrontierMustAscend(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 3) // every one of three machines owns vertices
	for name, build := range map[string]func(lo, hi int) []graph.VertexID{
		"descending": func(lo, hi int) []graph.VertexID {
			return []graph.VertexID{graph.VertexID(lo), graph.VertexID(hi - 1), graph.VertexID(hi - 2)}
		},
		"duplicate": func(lo, hi int) []graph.VertexID {
			return []graph.VertexID{graph.VertexID(lo), graph.VertexID(lo + 1), graph.VertexID(lo + 1)}
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := mustCluster(t, g, Options{NumNodes: 3})
			errs := make([]error, 3)
			err := c.Run(func(w *Worker) error {
				lo, hi := w.MasterRange()
				_, err := ProcessEdgesSparse(w, SparseParams[uint32]{
					Frontier: build(lo, hi),
					Signal: func(*SparseCtx[uint32], graph.VertexID, []graph.VertexID, []float32) {
						t.Error("signal ran for a rejected frontier")
					},
					Slot: func(graph.VertexID, uint32) {},
				})
				errs[w.ID()] = err
				return err
			})
			if err == nil {
				t.Fatal("run succeeded")
			}
			for node, err := range errs {
				lo, hi := c.Partition().Range(node)
				want := fmt.Sprintf("core: sparse frontier not strictly ascending at index 1 (%d ≥ %d)", hi-1, hi-2)
				if name == "duplicate" {
					want = fmt.Sprintf("core: sparse frontier not strictly ascending at index 1 (%d ≥ %d)", lo+1, lo+1)
				}
				if err == nil || err.Error() != want {
					t.Fatalf("node %d: error %v, want %q", node, err, want)
				}
			}
			if s := c.Stats().Totals; s.UpdateMessages != 0 || s.EdgesTraversed != 0 {
				t.Fatalf("a rejected frontier still moved: %+v", s)
			}
		})
	}
}

// TestSparseThenDenseInterleaved ensures tag bookkeeping stays aligned
// when passes alternate (as direction-optimizing BFS does).
func TestSparseThenDenseInterleaved(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 3)
	c := mustCluster(t, g, Options{NumNodes: 4, Mode: ModeSympleGraph, NumBuffers: 2})
	err := c.Run(func(w *Worker) error {
		for round := 0; round < 3; round++ {
			lo, hi := w.MasterRange()
			var frontier []graph.VertexID
			for v := lo; v < hi; v += 2 {
				frontier = append(frontier, graph.VertexID(v))
			}
			if _, err := ProcessEdgesSparse(w, SparseParams[uint32]{
				Frontier: frontier,
				Signal: func(ctx *SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
					for _, d := range dsts {
						ctx.Edge()
						ctx.EmitTo(d, 1)
					}
				},
				Slot: func(graph.VertexID, uint32) {},
			}); err != nil {
				return err
			}
			if err := ProcessEdgesDense(w, DenseParams[uint32]{
				Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					for range srcs {
						ctx.Edge()
					}
					ctx.Emit(uint32(len(srcs)))
				},
				Slot: func(graph.VertexID, uint32) {},
			}); err != nil {
				return err
			}
			if err := barrier(w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPBackedCluster runs a dense pass over real TCP loopback endpoints
// to prove transport interchangeability.
func TestTCPBackedCluster(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 9)
	tcps, err := comm.NewTCPClusterLoopback(3)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]comm.Endpoint, len(tcps))
	for i, e := range tcps {
		eps[i] = e
	}
	t.Cleanup(func() {
		for _, e := range tcps {
			e.Close()
		}
	})
	c := mustCluster(t, g, Options{NumNodes: 3, Mode: ModeSympleGraph, Endpoints: eps})
	counts := make([]uint32, g.NumVertices())
	err = c.Run(func(w *Worker) error {
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
}

// TestMinFilter pins the filter's three rules: an owned vertex is
// decided against the master value and never recorded; a remote vertex
// admits exactly the candidates that lower its running minimum, from any
// number of goroutines; and float candidates are ordered as values, not
// as bit patterns (negatives, NaN).
func TestMinFilter(t *testing.T) {
	g := graph.Ring(256)
	c := mustCluster(t, g, Options{NumNodes: 2})
	err := c.Run(func(w *Worker) error {
		if w.ID() != 0 {
			return nil
		}
		lo, hi := w.MasterRange()
		owned, remote := graph.VertexID(lo), graph.VertexID(hi)

		f := NewMinFilter(w, math.MaxUint32)
		master := make([]uint32, g.NumVertices())
		master[owned] = 10
		for i := 0; i < 2; i++ { // owned: master value, no memory
			if !f.ImprovesU32(owned, 9, master) || f.ImprovesU32(owned, 10, master) {
				return fmt.Errorf("owned vertex not decided against its master value")
			}
		}
		if f.ImprovesU32(remote, math.MaxUint32, master) {
			return fmt.Errorf("the domain's maximum passed an empty filter")
		}

		// Four goroutines offer every value in [1000, 5096) to each of 64
		// remote vertices in different orders: whatever the interleaving,
		// the admitted candidates of a vertex strictly descend to 1000.
		const goroutines, span, verts = 4, 4096, 64 // odd strides permute a power-of-two span
		admitted := make([][]uint32, goroutines)
		var wg sync.WaitGroup
		for gi := 0; gi < goroutines; gi++ {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				for k := 0; k < span; k++ {
					cand := uint32(1000 + (k*(2*gi+1)+gi*977)%span)
					for v := 0; v < verts; v++ {
						if f.ImprovesU32(remote+graph.VertexID(v), cand, master) && v == 0 {
							admitted[gi] = append(admitted[gi], cand)
						}
					}
				}
			}(gi)
		}
		wg.Wait()
		seen := map[uint32]bool{}
		for _, a := range admitted {
			for i, cand := range a {
				if seen[cand] || (i > 0 && cand >= a[i-1]) {
					return fmt.Errorf("candidate %d admitted twice or out of order", cand)
				}
				seen[cand] = true
			}
		}
		for v := 0; v < verts; v++ {
			if !seen[1000] || f.ImprovesU32(remote+graph.VertexID(v), 1000, master) ||
				!f.ImprovesU32(remote+graph.VertexID(v), 999, master) {
				return fmt.Errorf("vertex %d did not settle at the minimum offered", v)
			}
		}

		inf := float32(math.Inf(1))
		ff := NewMinFilter(w, math.Float32bits(inf))
		for _, step := range []struct {
			cand float32
			want bool
		}{{inf, false}, {float32(math.NaN()), false}, {2.5, true}, {2.5, false}, {3, false},
			{-1, true}, {-0.5, false}, {-2, true}, {float32(math.NaN()), false}} {
			if got := ff.ImprovesF32(remote, step.cand, nil); got != step.want {
				return fmt.Errorf("ImprovesF32(%g) = %v, want %v", step.cand, got, step.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// firstWins is a first-wins slot over vertex IDs: the first candidate
// applied at a vertex stays. noWin marks a vertex no candidate reached.
const noWin = math.MaxUint32

func firstWins(n int) ([]uint32, func(graph.VertexID, uint32)) {
	win := make([]uint32, n)
	for i := range win {
		win[i] = noWin
	}
	return win, func(dst graph.VertexID, src uint32) {
		if win[dst] == noWin {
			win[dst] = src
		}
	}
}

// localFrontier lists w's masters that satisfy in, ascending.
func localFrontier(w *Worker, in func(v int) bool) []graph.VertexID {
	lo, hi := w.MasterRange()
	var f []graph.VertexID
	for v := lo; v < hi; v++ {
		if in(v) {
			f = append(f, graph.VertexID(v))
		}
	}
	return f
}

// TestSparseAppliesInRingOrder: a sparse pass applies the frames of
// machines owner−1, owner−2, …, owner in that order, as the dense pass
// visits them, so a first-wins slot keeps the candidate a pull finds
// first. On a complete graph every machine pushes a candidate — the
// source's ID — to the same destinations: each vertex ≢ 3 (mod 4) hears
// from every machine and must keep the smallest source of the first
// non-empty machine in owner−1, owner−2, …; a vertex ≡ 3 (mod 4) hears
// only from its owner and keeps the owner's smallest. Then a push
// and a pull with the same first-wins slot must agree on every vertex
// of an RMAT graph.
func TestSparseAppliesInRingOrder(t *testing.T) {
	const n = 5 * partition.Align
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for d := 0; d < n; d++ {
			if d != u {
				edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(d)})
			}
		}
	}
	dup := graph.MustFromEdges(n, edges, graph.BuildOptions{})
	rmat := graph.Symmetrize(graph.RMAT(9, 8, graph.Graph500Params(), 21))
	inFrontier := func(v int) bool { return v%3 == 0 }
	for _, transport := range []string{"mem", "tcp"} {
		for _, p := range []int{2, 4, 5} {
			t.Run(fmt.Sprintf("%s/p=%d", transport, p), func(t *testing.T) {
				opts := Options{NumNodes: p, Mode: ModeSympleGraph}
				if transport == "tcp" {
					opts.Endpoints = tcpEndpoints(t, p)
				}
				c := mustCluster(t, dup, opts)
				win, slot := firstWins(n)
				err := c.Run(func(w *Worker) error {
					_, err := ProcessEdgesSparse(w, SparseParams[uint32]{
						Frontier: localFrontier(w, func(int) bool { return true }),
						Signal: func(ctx *SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
							for _, d := range dsts {
								if d%4 != 3 || w.Owns(d) {
									ctx.EmitTo(d, uint32(src))
								}
							}
						},
						Slot: slot,
					})
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				pt := c.Partition()
				for d := 0; d < n; d++ {
					owner := pt.Owner(graph.VertexID(d))
					want := uint32(noWin)
					for j := 1; j <= p && want == noWin; j++ {
						m := (owner - j + p) % p
						if d%4 == 3 && m != owner {
							continue
						}
						lo, hi := pt.Range(m)
						for u := lo; u < hi; u++ {
							if u != d {
								want = uint32(u)
								break
							}
						}
					}
					if win[d] != want {
						t.Fatalf("vertex %d (owner %d): kept candidate %d, want %d", d, owner, win[d], want)
					}
				}

				c = mustCluster(t, rmat, Options{NumNodes: p, Mode: ModeSympleGraph, Endpoints: freshEndpoints(t, transport, p)})
				frontier := make([]bool, rmat.NumVertices())
				for v := range frontier {
					frontier[v] = inFrontier(v)
				}
				push, pushSlot := firstWins(rmat.NumVertices())
				pull, pullSlot := firstWins(rmat.NumVertices())
				err = c.Run(func(w *Worker) error {
					if _, err := ProcessEdgesSparse(w, SparseParams[uint32]{
						Frontier: localFrontier(w, inFrontier),
						Signal: func(ctx *SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
							for _, d := range dsts {
								if !frontier[d] {
									ctx.EmitTo(d, uint32(src))
								}
							}
						},
						Slot: pushSlot,
					}); err != nil {
						return err
					}
					return ProcessEdgesDense(w, DenseParams[uint32]{
						Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
							if frontier[dst] {
								return
							}
							for _, u := range srcs {
								if frontier[u] {
									ctx.Emit(uint32(u))
									ctx.EmitDep()
									break
								}
							}
						},
						Slot:   pullSlot,
						Breaks: true,
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				for v := range push {
					if push[v] != pull[v] {
						t.Fatalf("vertex %d: push kept %d, pull %d", v, push[v], pull[v])
					}
				}
			})
		}
	}
}

// freshEndpoints returns nil for the memory transport (the cluster builds
// its own) or a new loopback TCP cluster.
func freshEndpoints(t *testing.T, transport string, p int) []comm.Endpoint {
	if transport == "tcp" {
		return tcpEndpoints(t, p)
	}
	return nil
}

// TestSparseSourceOrderParallel: scan ranges that run concurrently merge
// their bins in range order, so a first-wins sparse pass gives the
// Workers == 1 answer at Workers 4. Every source pushes its ID to 97 hub
// destinations per machine, and each machine owns 8 source blocks, so
// the scan really forks.
func TestSparseSourceOrderParallel(t *testing.T) {
	const p, hubs = 2, 97
	n := p * 8 * graph.DefaultBlockVerts
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for q := 0; q < p; q++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(q*n/p + (u*31)%hubs)})
		}
	}
	g := graph.MustFromEdges(n, edges, graph.BuildOptions{})
	run := func(workers int) []uint32 {
		c := mustCluster(t, g, Options{NumNodes: p, Workers: workers})
		win, slot := firstWins(n)
		err := c.Run(func(w *Worker) error {
			if lo, hi := w.MasterRange(); hi-lo < 8*graph.DefaultBlockVerts {
				return fmt.Errorf("node %d owns %d vertices, fewer than 8 source blocks", w.ID(), hi-lo)
			}
			_, err := ProcessEdgesSparse(w, SparseParams[uint32]{
				Frontier: localFrontier(w, func(int) bool { return true }),
				Signal: func(ctx *SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
					for _, d := range dsts {
						ctx.EmitTo(d, uint32(src))
					}
				},
				Slot: slot,
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return win
	}
	want := run(1)
	for rep := 0; rep < 20; rep++ {
		got := run(4)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("repeat %d, vertex %d: Workers 4 kept %d, Workers 1 kept %d", rep, v, got[v], want[v])
			}
		}
	}
}
