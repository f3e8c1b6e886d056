package mutate

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
)

// requireSameArrays is requireIdentical plus a direct comparison of the
// in-side arrays. Equal rows over equal vertex and arc counts already
// mean equal offsets, targets, sources and weights on both sides.
func requireSameArrays(t testing.TB, what string, got, want *graph.Graph) {
	t.Helper()
	requireIdentical(t, what, got, want)
	gotOff, gotSrc, gotW := got.InCSC()
	wantOff, wantSrc, wantW := want.InCSC()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotSrc, wantSrc) || !slices.Equal(gotW, wantW) {
		t.Fatalf("%s: in-side arrays differ", what)
	}
}

// TestRetainedEpochsRebuild: only the newest snapshot and its parent
// hold their graphs, and every other retained epoch rebuilds its own
// from the newest by patching with the commits' undo deltas. Over random chains of
// 3×retention adversarial batches (all four op kinds, weight updates)
// on unweighted, weighted and parallel-arc roots, each retained epoch's
// graph is the one the reference apply built at that epoch, array for
// array, rebuilt while another holder keeps it alive and again after
// its release, and not kept by the snapshot, whose fingerprint, delta
// and effective delta never change. A snapshot that aged out of the
// window still rebuilds.
func TestRetainedEpochsRebuild(t *testing.T) {
	const retention = 4
	roots := map[string]func(rng *rand.Rand) *graph.Graph{
		"unweighted": func(rng *rand.Rand) *graph.Graph { return randomGraph(rng, 24, 80, false) },
		"weighted":   func(rng *rand.Rand) *graph.Graph { return randomGraph(rng, 24, 80, true) },
		"parallel": func(rng *rand.Rand) *graph.Graph {
			edges := randomGraph(rng, 24, 80, true).Edges()
			for i := 0; i < 12; i++ { // a second copy of some arcs, with another weight
				e := edges[rng.Intn(len(edges))]
				edges = append(edges, graph.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight + 1})
			}
			g, err := graph.FromEdges(24, edges, graph.BuildOptions{Weighted: true})
			if err != nil || g.Simple() {
				t.Fatalf("parallel root: %v, simple=%v", err, g.Simple())
			}
			return g
		},
	}
	type record struct {
		fp         string
		delta, eff Batch
	}
	for name, root := range roots {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := root(rng)
			st, err := NewStore(g, retention)
			if err != nil {
				t.Fatal(err)
			}
			first := st.Latest()
			// refs[k-1] is epoch k's graph; the root's is a copy, so the
			// test does not hold the snapshot's own.
			refs := []*graph.Graph{graph.MustFromEdges(g.NumVertices(), g.Edges(), graph.BuildOptions{Weighted: g.Weighted()})}
			g = nil
			records := []record{{fp: first.Fingerprint()}}
			for i := 0; i < 3*retention; i++ {
				b := adversarialBatch(rng, refs[len(refs)-1], 1+rng.Intn(12))
				want, err := applyReference(refs[len(refs)-1], b)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := st.Commit(b)
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, want)
				records = append(records, record{snap.Fingerprint(), snap.Delta(), snap.Effective()})

				lo, hi := st.Window()
				for k := lo; k <= hi; k++ {
					what := func(how string) string {
						return fmt.Sprintf("%s seed %d commit %d: epoch %d %s", name, seed, i, k, how)
					}
					snap, err := st.At(k)
					if err != nil {
						t.Fatal(err)
					}
					keeps := k+1 >= hi || k == 1 && name == "parallel"
					func() {
						held := snap.Graph()
						requireSameArrays(t, what("held"), held, refs[k-1])
						again := snap.Graph()
						requireSameArrays(t, what("rebuilt while held"), again, refs[k-1])
						if kept := again == held; kept != keeps {
							t.Fatalf("%s: snapshot keeps its graph = %v, want %v", what("held"), kept, keeps)
						}
					}()
					runtime.GC()
					requireSameArrays(t, what("rebuilt after release"), snap.Graph(), refs[k-1])
					r := records[k-1]
					if snap.Fingerprint() != r.fp || !reflect.DeepEqual(snap.Delta(), r.delta) || !reflect.DeepEqual(snap.Effective(), r.eff) {
						t.Fatalf("%s: fingerprint, delta or effective delta changed", what("rebuilt"))
					}
				}
			}
			requireSameArrays(t, name+" aged-out root", first.Graph(), refs[0])
		}
	}
}

// TestStoreRootedAtEpochFollowsChain: a store rooted at epoch k of
// another chain, with that epoch's graph and fingerprint, commits the
// chain's later batches to the same epochs, fingerprints and graphs,
// and resolves nothing before k.
func TestStoreRootedAtEpochFollowsChain(t *testing.T) {
	const k = 3
	rng := rand.New(rand.NewSource(5))
	st, err := NewStore(randomGraph(rng, 24, 80, true), 0)
	if err != nil {
		t.Fatal(err)
	}
	var replica *Store
	for i := 1; i < 3*k; i++ {
		if i == k {
			at := st.Latest()
			replica = NewStoreAt(at.Graph(), at.Epoch(), at.Fingerprint(), 0)
		}
		b := adversarialBatch(rng, st.Latest().Graph(), 1+rng.Intn(12))
		want, err := st.Commit(b)
		if err != nil {
			t.Fatal(err)
		}
		if replica == nil {
			continue
		}
		got, err := replica.Commit(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch() != want.Epoch() || got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("commit %d: replica at epoch %d fp %.12s, chain at %d fp %.12s",
				i, got.Epoch(), got.Fingerprint(), want.Epoch(), want.Fingerprint())
		}
		requireSameArrays(t, fmt.Sprintf("commit %d", i), got.Graph(), want.Graph())
	}
	if lo, _ := replica.Window(); lo != k {
		t.Fatalf("replica window starts at %d, want %d", lo, k)
	}
	if _, err := replica.At(k - 1); err == nil {
		t.Fatalf("replica resolved epoch %d, before its root", k-1)
	}
}
