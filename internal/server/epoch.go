// Graph versioning: this file is the snapshot accessor — the only
// place in the serving layer allowed to reach into a graph entry's raw
// graphs. Everything else resolves an epoch through Resolve/Latest and
// works on the immutable epochState it gets back.
package server

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// graphEntry is one served graph's version chain, in the front-end and
// in every sgworker alike: the snapshot store and the per-epoch derived
// state (canonicalization defaults, variants).
// Only the newest epoch's state, with the variants it materialized, is
// kept; a query pinned to an older epoch gets a state of its own whose
// variants derive from the snapshot's rebuilt graph, and which goes
// when the query does.
type graphEntry struct {
	name  string
	store *mutate.Store

	// commitMu serializes mutation commits for this graph; queries
	// never take it.
	commitMu sync.Mutex

	mu     sync.Mutex
	states map[uint64]*epochState // the newest epoch's (and its parent's while a commit carries variants across)
	infos  map[uint64]graphInfo   // every retained epoch's, so resolving one needs no graph

	weights weightStream // every epoch's synthesized-weights variant draws here
}

// weightStream is graph.RandomWeights(g, synthWeightSeed)'s draw
// sequence, kept across epochs: every epoch's synthesized weights are its
// first |E| draws, one prefix shared and never written again.
type weightStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	draws []float32
}

// weigh returns g carrying the stream's first |E| draws, bit for bit
// graph.RandomWeights(g, synthWeightSeed).
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
// canonicalization defaults and the lazily built serving variants.
// What ships to workers is the snapshot alone (buildSpec).
type epochState struct {
	snap    *mutate.Snapshot
	info    graphInfo
	weights *weightStream // the graph entry's

	mu       sync.Mutex
	variants map[graphVariant]*graph.Graph
}

// newGraphEntry serves a version chain: the front-end's, rooted at a
// loaded graph, or a worker's, rooted at the epoch it was shipped whole.
func newGraphEntry(name string, store *mutate.Store) *graphEntry {
	e := &graphEntry{name: name, store: store, states: make(map[uint64]*epochState), infos: make(map[uint64]graphInfo)}
	e.weights.rng = rand.New(rand.NewSource(synthWeightSeed))
	e.stateFor(store.Latest())
	return e
}

// stateFor returns the epochState for a resolved snapshot: the kept
// one for the newest epoch (created on first use), a fresh one for an
// older epoch.
func (e *graphEntry) stateFor(snap *mutate.Snapshot) *epochState {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := snap.Epoch()
	if st, ok := e.states[ep]; ok {
		return st
	}
	st := &epochState{snap: snap, weights: &e.weights, variants: make(map[graphVariant]*graph.Graph)}
	info, ok := e.infos[ep]
	if !ok { // every epoch is first seen as the newest, whose graph is held
		g := snap.Graph()
		root, _ := graph.LargestOutDegreeVertex(g)
		info = graphInfo{
			vertices:    g.NumVertices(),
			edges:       g.NumEdges(),
			defaultRoot: int(root),
			weighted:    g.Weighted(),
			epoch:       ep,
		}
		e.infos[ep] = info
		st.variants[variantDirected] = g
	}
	st.info = info
	if _, hi := e.store.Window(); ep == hi {
		e.states[ep] = st
	}
	return st
}

// forget drops the states of epochs before the newest, once a commit
// has carried their variants across, and the infos of epochs the store
// no longer resolves.
func (e *graphEntry) forget() {
	lo, hi := e.store.Window()
	e.mu.Lock()
	defer e.mu.Unlock()
	for ep := range e.states {
		if ep < hi {
			delete(e.states, ep)
		}
	}
	for ep := range e.infos {
		if ep < lo {
			delete(e.infos, ep)
		}
	}
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
	var g *graph.Graph
	switch {
	case v == variantDirected:
		g = st.snap.Graph()
	case v == variantUndirected: // a commit installs its parent's, patched
		g = graph.Symmetrize(st.graphLocked(variantDirected))
	case v == variantWeighted && !st.info.weighted: // RandomWeights' draws, shared across epochs
		g = st.weights.weigh(st.graphLocked(variantDirected))
	default:
		g = st.graphLocked(variantDirected)
	}
	st.variants[v] = g
	return g
}

// install memoizes a variant the commit path derived from the parent
// epoch's.
func (st *epochState) install(v graphVariant, g *graph.Graph) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.variants[v] = g
}

// buildSpec assembles the provider handoff for one (epoch, variant)
// slot build: the variant graph for in-process engines, and for workers
// the epoch's directed snapshot alone — its blob, or the committed batch
// against the parent fingerprint, which the worker verifies with
// ChainFingerprint and commits to its own chain, whose epochState
// serves the variant.
func (st *epochState) buildSpec(name string, v graphVariant, mode core.Mode, slotID int) buildSpec {
	spec := buildSpec{
		GraphName: name,
		Variant:   v,
		Graph:     st.Graph(v),
		Mode:      mode,
		SlotID:    slotID,
		Epoch:     st.Epoch(),
		FP:        st.snap.Fingerprint(),
		Blob:      st.snap.Blob,
		ParentFP:  st.snap.ParentFingerprint(),
	}
	if spec.ParentFP != "" {
		spec.Delta = func() []byte { return st.snap.Delta().Encode() }
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
// the parent epoch's patched with the symmetric form of the same delta,
// built while the store builds the snapshot and installed before the
// epoch's first query, which finds it memoized. The commit mutex makes the
// epoch bump atomic with respect to other commits, and queries pinned
// to older epochs keep resolving their snapshots untouched.
func (e *graphEntry) commit(b mutate.Batch) (commitResult, error) {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()

	parent := e.Latest()
	if err := b.Validate(parent.Graph(variantDirected)); err != nil {
		return commitResult{}, err
	}
	var undirected *graph.Graph
	var incDur time.Duration
	snap, err := e.store.CommitWith(b, func(eff mutate.Batch) {
		start := time.Now()
		// The commit cannot fail on the variant's account: were the patch
		// ever refused, the variant is left to the lazy Symmetrize.
		undirected, _ = mutate.PatchUndirected(parent.Graph(variantUndirected), parent.Graph(variantDirected), eff)
		incDur = time.Since(start)
	})
	if err != nil {
		return commitResult{}, err
	}
	st := e.stateFor(snap)
	if undirected != nil {
		st.install(variantUndirected, undirected)
	}
	e.forget() // the parent's state, now that its variants are carried across
	return commitResult{snap: snap, state: st, incDur: incDur}, nil
}

// epochStatus is one graph's versioning state for /statusz.
type epochStatus struct {
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
	WindowLo    uint64 `json:"window_lo"`
	WindowHi    uint64 `json:"window_hi"`
	Commits     uint64 `json:"commits"`
	OpsApplied  uint64 `json:"ops_applied"`
	Evictions   uint64 `json:"evictions"`
}

// epochStatus snapshots the entry's versioning counters.
func (e *graphEntry) epochStatus() epochStatus {
	lo, hi := e.store.Window()
	commits, ops, evictions := e.store.Stats()
	return epochStatus{
		Epoch:       hi,
		Fingerprint: e.store.Latest().Fingerprint(),
		WindowLo:    lo,
		WindowHi:    hi,
		Commits:     commits,
		OpsApplied:  ops,
		Evictions:   evictions,
	}
}
