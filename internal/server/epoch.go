// Graph versioning: this file is the snapshot accessor — the only
// place in the serving layer allowed to reach into a graph entry's raw
// graphs. Everything else resolves an epoch through Resolve/Latest and
// works on the immutable epochState it gets back.
package server

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// graphEntry is one served graph's version chain: the snapshot store
// and the per-epoch derived state (variants, fingerprints, ship deltas).
type graphEntry struct {
	name  string
	store *mutate.Store

	// commitMu serializes mutation commits for this graph; queries
	// never take it.
	commitMu sync.Mutex

	mu     sync.Mutex
	states map[uint64]*epochState

	weights weightStream // every epoch's synthesized-weights variant draws here
}

// weightStream is graph.RandomWeights(g, 7)'s draw sequence, kept across
// epochs: every epoch's synthesized weights are its first |E| draws, one
// prefix shared and never written again.
type weightStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	draws []float32
}

// weigh returns g carrying the stream's first |E| draws, bit for bit
// graph.RandomWeights(g, 7).
func (ws *weightStream) weigh(g *graph.Graph) *graph.Graph {
	ws.mu.Lock()
	if ws.draws == nil { // sized once, with room for the chain to grow
		ws.draws = make([]float32, 0, g.NumEdges()+g.NumEdges()/8)
	}
	ws.draws = graph.DrawWeights(ws.draws, ws.rng, int(g.NumEdges()))
	draws := ws.draws
	ws.mu.Unlock()
	return graph.WithWeights(g, draws)
}

// epochState is everything derived from one immutable snapshot:
// canonicalization defaults, lazily built serving variants, their
// fingerprints, and the per-variant ship payloads (blob or delta).
type epochState struct {
	snap    *mutate.Snapshot
	info    graphInfo
	weights *weightStream // the graph entry's

	mu       sync.Mutex
	variants map[graphVariant]*graph.Graph
	blobs    map[graphVariant]*variantBlob  // memoized full serializations
	deltas   map[graphVariant]*variantDelta // memoized deltas vs parent epoch
	symDelta *mutate.Batch                  // the undirected variant's, when the commit patched it
	parent   *epochState                    // nil when the parent epoch aged out
}

type variantBlob struct {
	once sync.Once
	data []byte
	sha  string
	err  error
}

// variantDelta is the canonical delta from the parent epoch's variant
// graph to this epoch's, for delta shipping, computed at most once and
// only when a remote build ships it. nil bytes mean "no delta path"
// (the delta would not beat a full ship).
type variantDelta struct {
	once    sync.Once
	bytes   []byte
	chained bool // FP == ChainFingerprint(parent FP, bytes), verifiable by the receiver
}

func newGraphEntry(name string, g *graph.Graph, retention int) (*graphEntry, error) {
	store, err := mutate.NewStore(g, retention)
	if err != nil {
		return nil, fmt.Errorf("server: versioning %s: %w", name, err)
	}
	e := &graphEntry{name: name, store: store, states: make(map[uint64]*epochState)}
	e.weights.rng = rand.New(rand.NewSource(7))
	e.stateFor(store.Latest())
	return e, nil
}

// stateFor returns the cached epochState for a resolved snapshot,
// creating and linking it to its parent (when retained) on first use.
func (e *graphEntry) stateFor(snap *mutate.Snapshot) *epochState {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.states[snap.Epoch()]; ok {
		return st
	}
	g := snap.Graph()
	root, _ := graph.LargestOutDegreeVertex(g)
	st := &epochState{
		snap:    snap,
		weights: &e.weights,
		info: graphInfo{
			vertices:    g.NumVertices(),
			edges:       g.NumEdges(),
			defaultRoot: int(root),
			weighted:    g.Weighted(),
			epoch:       snap.Epoch(),
		},
		variants: map[graphVariant]*graph.Graph{variantDirected: g},
		blobs:    make(map[graphVariant]*variantBlob),
		deltas:   make(map[graphVariant]*variantDelta),
		parent:   e.states[snap.Epoch()-1],
	}
	e.states[snap.Epoch()] = st
	// Prune states the store no longer resolves, and cut parent links
	// that would pin pruned graphs.
	lo, _ := e.store.Window()
	for ep, old := range e.states {
		if ep < lo {
			delete(e.states, ep)
			continue
		}
		old.mu.Lock() // shipDelta reads the link under the state's own mutex
		if old.parent != nil && old.parent.snap.Epoch() < lo {
			old.parent = nil
		}
		old.mu.Unlock()
	}
	return st
}

// Resolve maps a requested epoch (0 = latest) to its epochState. A
// pruned or future epoch returns the store's window error.
func (e *graphEntry) Resolve(epoch uint64) (*epochState, error) {
	snap, err := e.store.At(epoch)
	if err != nil {
		return nil, err
	}
	return e.stateFor(snap), nil
}

// Latest returns the newest epoch's state.
func (e *graphEntry) Latest() *epochState {
	return e.stateFor(e.store.Latest())
}

// effectiveSince concatenates the effective deltas of epochs from+1..to:
// what turns epoch from's graph (of any variant) into epoch to's.
func (e *graphEntry) effectiveSince(from, to uint64) (mutate.Batch, error) {
	var delta mutate.Batch
	for ep := from + 1; ep <= to; ep++ {
		snap, err := e.store.At(ep)
		if err != nil {
			return mutate.Batch{}, err
		}
		delta.Ops = append(delta.Ops, snap.Effective().Ops...)
	}
	return delta, nil
}

// Epoch returns the snapshot's version number.
func (st *epochState) Epoch() uint64 { return st.snap.Epoch() }

// Info returns the canonicalization defaults for this epoch.
func (st *epochState) Info() graphInfo { return st.info }

// Fingerprint returns the base chained fingerprint of this epoch.
func (st *epochState) Fingerprint() string { return st.snap.Fingerprint() }

// Graph materializes (once) and returns the serving variant of this
// epoch's snapshot.
func (st *epochState) Graph(v graphVariant) *graph.Graph {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.graphLocked(v)
}

func (st *epochState) graphLocked(v graphVariant) *graph.Graph {
	if g, ok := st.variants[v]; ok {
		return g
	}
	base := st.variants[variantDirected]
	g := base
	switch v {
	case variantUndirected:
		g = graph.Symmetrize(base)
	case variantWeighted:
		if !base.Weighted() {
			g = st.weights.weigh(base)
		}
	}
	st.variants[v] = g
	return g
}

// VariantFP names a variant of this epoch: the base chain fingerprint
// for the directed variant, a derived fingerprint for the rest — O(1)
// either way, never re-hashing adjacency.
func (st *epochState) VariantFP(v graphVariant) string {
	if v == variantDirected {
		return st.snap.Fingerprint()
	}
	return mutate.DeriveFingerprint(st.snap.Fingerprint(), v.String())
}

// blob memoizes the full serialization of one variant for full-graph
// shipping. The directed variant reuses the snapshot's own memoized
// blob.
func (st *epochState) blob(v graphVariant) ([]byte, string, error) {
	if v == variantDirected {
		return st.snap.Blob()
	}
	st.mu.Lock()
	b, ok := st.blobs[v]
	if !ok {
		b = &variantBlob{}
		st.blobs[v] = b
	}
	g := st.graphLocked(v)
	st.mu.Unlock()
	b.once.Do(func() {
		b.data, b.sha, b.err = mutate.SerializeGraph(g)
	})
	return b.data, b.sha, b.err
}

// shipDelta returns, computed once, the canonical delta from the parent
// epoch's variant to this one, or nil when the full blob is cheaper.
func (st *epochState) shipDelta(v graphVariant) (bytes []byte, chained bool) {
	st.mu.Lock()
	d, ok := st.deltas[v]
	if !ok {
		d = &variantDelta{}
		st.deltas[v] = d
	}
	parent := st.parent
	st.mu.Unlock()
	d.once.Do(func() {
		if parent != nil {
			d.bytes, d.chained = st.computeDelta(v, parent)
		}
	})
	return d.bytes, d.chained
}

func (st *epochState) computeDelta(v graphVariant, parent *epochState) ([]byte, bool) {
	if v == variantDirected {
		// The committed batch is exactly the delta the base chain
		// fingerprint hashed, so the receiver can verify
		// ChainFingerprint(parentFP, bytes) == FP.
		b := st.snap.Delta()
		if len(b.Ops) == 0 {
			return nil, false
		}
		return b.Encode(), true
	}
	st.mu.Lock()
	diff := st.symDelta
	st.mu.Unlock()
	if diff == nil || v != variantUndirected {
		// Diff what the commit does not patch: the undirected variant of
		// a weighted base, and a weighted base itself.
		d, err := mutate.Diff(parent.Graph(v), st.Graph(v))
		if err != nil {
			return nil, false
		}
		diff = &d
	}
	// A delta near the graph's own edge count ships more bytes than
	// the blob (13 B/op vs ~8 B/edge serialized); fall back to full.
	if len(diff.Ops) > mutate.MaxBatchOps || int64(len(diff.Ops)) > st.info.edges/2 {
		return nil, false
	}
	return diff.Encode(), false
}

// install memoizes a variant the commit path derived from the parent
// epoch's, and the canonical delta between the two for shipping.
func (st *epochState) install(v graphVariant, g *graph.Graph, delta mutate.Batch) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.variants[v] = g
	st.symDelta = &delta
}

// buildSpec assembles the provider handoff for one (epoch, variant)
// slot build: the graph, its fingerprint, the lazy blob and, while the
// parent is retained, the lazy delta — but not for synthesized weights,
// which are positional and churn wholesale on any topology change.
func (st *epochState) buildSpec(name string, v graphVariant, mode core.Mode, slotID int) BuildSpec {
	spec := BuildSpec{
		GraphName: name,
		Variant:   v,
		Graph:     st.Graph(v),
		Mode:      mode,
		SlotID:    slotID,
		Epoch:     st.Epoch(),
		FP:        st.VariantFP(v),
		Blob:      func() ([]byte, string, error) { return st.blob(v) },
	}
	st.mu.Lock()
	parent := st.parent
	st.mu.Unlock()
	if parent != nil && (v != variantWeighted || st.info.weighted) {
		spec.ParentFP = parent.VariantFP(v)
		spec.Delta = func() ([]byte, bool) { return st.shipDelta(v) }
	}
	return spec
}

// commitResult reports one applied mutation batch.
type commitResult struct {
	snap   *mutate.Snapshot
	state  *epochState
	incDur time.Duration // carrying derived state (the undirected variant) forward
}

// commit validates and applies one batch, then carries the epoch's
// derived state forward. Nothing here rebuilds or diffs a whole graph:
// the store patches the parent snapshot, and the undirected variant is
// the parent epoch's patched with the symmetric form of the same delta.
// The commit mutex makes the epoch bump atomic with respect to other
// commits, and queries pinned to older epochs keep resolving their
// snapshots untouched.
func (e *graphEntry) commit(b mutate.Batch) (commitResult, error) {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()

	parent := e.Latest()
	if err := b.Validate(parent.Graph(variantDirected)); err != nil {
		return commitResult{}, err
	}
	snap, err := e.store.Commit(b)
	if err != nil {
		return commitResult{}, err
	}
	st := e.stateFor(snap)

	incStart := time.Now()
	advanceUndirected(parent, st, snap.Effective())
	return commitResult{snap: snap, state: st, incDur: time.Since(incStart)}, nil
}

// advanceUndirected carries the undirected variant across the commit
// parent→st. On an unweighted base the variant is a function of the
// arc set, so it is the parent epoch's variant patched with the
// symmetric form of eff, installed at commit time so the first
// undirected query of the epoch finds it memoized. A weighted base
// keeps the full Symmetrize, memoized here too: there an arc added as a reverse carries
// the weight of the arc it reverses, so one edit can change two arcs'
// weights, and PatchUndirected does not derive the second yet. The
// commit has landed by now, so this cannot fail it: if the patch is
// ever refused, the variant is left to the lazy Symmetrize.
func advanceUndirected(parent, st *epochState, eff mutate.Batch) {
	if st.info.weighted {
		st.Graph(variantUndirected)
		return
	}
	g, symDelta, err := mutate.PatchUndirected(parent.Graph(variantUndirected),
		parent.Graph(variantDirected), st.Graph(variantDirected), eff)
	if err == nil {
		st.install(variantUndirected, g, symDelta)
	}
}

// EpochStatus is one graph's versioning state for /statusz.
type EpochStatus struct {
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
	WindowLo    uint64 `json:"window_lo"`
	WindowHi    uint64 `json:"window_hi"`
	Commits     uint64 `json:"commits"`
	OpsApplied  uint64 `json:"ops_applied"`
	Evictions   uint64 `json:"evictions"`
}

// epochStatus snapshots the entry's versioning counters.
func (e *graphEntry) epochStatus() EpochStatus {
	lo, hi := e.store.Window()
	commits, ops, evictions := e.store.Stats()
	return EpochStatus{
		Epoch:       hi,
		Fingerprint: e.store.Latest().Fingerprint(),
		WindowLo:    lo,
		WindowHi:    hi,
		Commits:     commits,
		OpsApplied:  ops,
		Evictions:   evictions,
	}
}
