package mutate

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// DefaultRetention is how many epochs a Store keeps resolvable. Old
// epochs age out so the window of deltas stays bounded; a query pinning
// an aged-out epoch gets a clean 4xx, not a torn answer.
const DefaultRetention = 8

// Snapshot is one immutable graph version. The content fingerprint is
// memoized at commit time and chained to the parent —
//
//	fp(root)  = sha256(serialized graph bytes)
//	fp(child) = sha256(parent fp bytes ‖ canonical delta bytes)
//
// — so advancing an epoch hashes O(delta) bytes, not the full
// adjacency (the old blobFor path re-serialized and re-hashed the
// whole graph per build spec). The serialized blob and its sha256 are
// computed lazily, only if a cold worker actually needs a full ship;
// delta shipping never touches them.
//
// Only the newest snapshot and its parent hold their graphs. An older
// one rebuilds its graph on demand by patching backwards from the
// newest with each later commit's undo (see Graph), so a retained epoch
// costs its delta, not a copy of the graph.
type Snapshot struct {
	epoch    uint64
	fp       string
	parentFP string
	delta    Batch // empty for the root snapshot
	eff      Batch // what delta changes, in Diff's canonical form
	undo     delta // what turns this epoch's graph back into its parent's

	mu    sync.Mutex
	held  *graph.Graph // the two newest epochs' graphs, and a root's with parallel arcs
	child *Snapshot    // the next epoch, once committed
	blob  *blobMemo    // the newest epoch's serialized graph
}

// blobMemo is one serialization of a snapshot's graph.
type blobMemo struct {
	once sync.Once
	blob []byte
	sha  string
	err  error
}

// Epoch returns the snapshot's version number (root = 1).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Graph returns the immutable graph at this epoch. An epoch older than
// the newest two has its graph rebuilt per call, so a caller keeps what
// it got for as long as it needs it: the next epoch's graph (itself
// possibly rebuilt) patched with that epoch's undo. That is
// O((hi−k)·|E|) for epoch k of a chain ending at hi, and array for
// array the graph the commit built, since a patched simple graph's
// arrays depend only on its arc set. A snapshot that aged out of its
// store's window still rebuilds: it reaches the newest graph through
// its successors.
func (s *Snapshot) Graph() *graph.Graph {
	s.mu.Lock()
	held, child := s.held, s.child
	s.mu.Unlock()
	if held != nil {
		return held
	}
	g, err := child.undo.patch(child.Graph())
	if err != nil { // the undo was derived from this very graph
		panic(fmt.Sprintf("mutate: rebuilding epoch %d: %v", s.epoch, err))
	}
	return g
}

// supersede records the commit of s's child and drops s's blob memo.
func (s *Snapshot) supersede(child *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.child, s.blob = child, nil
}

// release drops s's graph, which from now on is held only by whoever
// already has it. A root with parallel arcs keeps its graph, since the
// first commit collapsed them and its child's undo rebuilds the
// collapsed graph.
func (s *Snapshot) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held.Simple() {
		s.held = nil
	}
}

// Fingerprint returns the chained content fingerprint.
func (s *Snapshot) Fingerprint() string { return s.fp }

// ParentFingerprint returns the parent's fingerprint ("" for root).
func (s *Snapshot) ParentFingerprint() string { return s.parentFP }

// Delta returns the batch that produced this snapshot from its parent
// (zero-length for the root).
func (s *Snapshot) Delta() Batch { return s.delta }

// Effective returns what Delta actually changed, as the canonical batch
// Diff(parent graph, this graph) would compute (zero-length for the
// root): no-op ops dropped, remove-vertex ops expanded into their arcs.
// The incremental trackers advance on it.
func (s *Snapshot) Effective() Batch { return s.eff }

// Blob serializes the snapshot's graph (SGG1 binary form) and returns
// it with its sha256. The sha travels next to full-graph ships so the
// receiver can verify the transfer; the chained fingerprint cannot
// serve that role because a worker holding only the blob cannot
// recompute the chain. The newest epoch's blob is memoized; the memo
// goes when the next commit supersedes it, as the graph does, and an
// older epoch's blob is serialized per call.
func (s *Snapshot) Blob() ([]byte, string, error) {
	s.mu.Lock()
	m := s.blob
	s.mu.Unlock()
	if m == nil {
		m = &blobMemo{}
	}
	m.once.Do(func() {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, s.Graph()); err != nil {
			m.err = fmt.Errorf("mutate: serialize snapshot @%d: %w", s.epoch, err)
			return
		}
		m.blob = buf.Bytes()
		sum := sha256.Sum256(m.blob)
		m.sha = hex.EncodeToString(sum[:])
	})
	return m.blob, m.sha, m.err
}

// ChainFingerprint derives a child fingerprint from the parent's and
// the canonical delta encoding. Exposed so workers can verify a delta
// frame produces the graph the front-end claims it does.
func ChainFingerprint(parentFP string, deltaBytes []byte) string {
	h := sha256.New()
	h.Write([]byte(parentFP))
	h.Write(deltaBytes)
	return hex.EncodeToString(h.Sum(nil))
}

// RootFingerprint fingerprints a root snapshot's graph content.
func RootFingerprint(g *graph.Graph) (string, error) {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// Store is the versioned snapshot chain for one served graph. Commits
// are serialized by the caller (the server holds a per-graph commit
// lock); reads are safe under concurrent commits.
type Store struct {
	mu        sync.RWMutex
	snaps     []*Snapshot // ascending epoch, contiguous
	retention int

	// parent is the newest snapshot's parent, which keeps its graph until
	// the next commit has built its own. A commit allocates about two
	// graphs' worth of arrays (the snapshot's and the server's undirected
	// variant); on a heap that held the newest graph alone, the runtime
	// had returned most of those pages to the OS by then, and
	// serve_mutate's commits (scale 13, 2-vCPU VM) took twice the minor
	// page faults and ran ×1.4 slower.
	parent *Snapshot

	commits   uint64
	opsTotal  uint64
	evictions uint64
}

// NewStore roots a version chain at epoch 1 with the given graph.
func NewStore(g *graph.Graph, retention int) (*Store, error) {
	fp, err := RootFingerprint(g)
	if err != nil {
		return nil, err
	}
	return NewStoreAt(g, 1, fp, retention), nil
}

// NewStoreAt roots a version chain at an epoch of another chain: g is
// that chain's graph at epoch, fp its fingerprint there. Commits then
// chain from fp exactly as the original chain did, so a replica shipped
// one epoch in full follows later epochs by their deltas alone.
func NewStoreAt(g *graph.Graph, epoch uint64, fp string, retention int) *Store {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Store{
		snaps:     []*Snapshot{{epoch: epoch, held: g, fp: fp, blob: &blobMemo{}}},
		retention: retention,
	}
}

// Latest returns the newest snapshot.
func (st *Store) Latest() *Snapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.snaps[len(st.snaps)-1]
}

// At resolves an epoch. epoch 0 means latest. A pruned or future epoch
// returns an error naming the retained window.
func (st *Store) At(epoch uint64) (*Snapshot, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if epoch == 0 {
		return st.snaps[len(st.snaps)-1], nil
	}
	lo, hi := st.snaps[0].epoch, st.snaps[len(st.snaps)-1].epoch
	if epoch < lo || epoch > hi {
		return nil, fmt.Errorf("mutate: epoch %d not retained (have %d..%d)", epoch, lo, hi)
	}
	return st.snaps[epoch-lo], nil
}

// Window returns the retained epoch range.
func (st *Store) Window() (lo, hi uint64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.snaps[0].epoch, st.snaps[len(st.snaps)-1].epoch
}

// Commit applies a batch to the latest snapshot and appends the
// resulting epoch, pruning past the retention window. The new epoch
// keeps the undo of the batch; the previous parent lets go of its
// graph. The caller must serialize Commit calls per store.
func (st *Store) Commit(b Batch) (*Snapshot, error) { return st.CommitWith(b, nil) }

// CommitWith is Commit that also runs derive on the new epoch's
// effective delta, concurrently with building its graph, and returns
// once both are done: a caller carrying state derived from the parent
// across the commit (the server's undirected variant) overlaps that
// work with the patch instead of following it.
func (st *Store) CommitWith(b Batch, derive func(eff Batch)) (*Snapshot, error) {
	parent := st.Latest()
	ng, eff, undo, err := apply(parent.Graph(), b, derive)
	if err != nil {
		return nil, err
	}
	child := &Snapshot{
		epoch:    parent.epoch + 1,
		held:     ng,
		fp:       ChainFingerprint(parent.fp, b.Encode()),
		parentFP: parent.fp,
		delta:    b,
		eff:      eff,
		undo:     undo,
		blob:     &blobMemo{},
	}
	st.mu.Lock()
	st.snaps = append(st.snaps, child)
	st.commits++
	st.opsTotal += uint64(len(b.Ops))
	for len(st.snaps) > st.retention {
		st.snaps[0] = nil // release the snapshot; the slice header still pins the array
		st.snaps = st.snaps[1:]
		st.evictions++
	}
	st.mu.Unlock()
	parent.supersede(child)
	if st.parent != nil {
		st.parent.release()
	}
	st.parent = parent
	return child, nil
}

// Stats reports commit counters for /statusz.
func (st *Store) Stats() (commits, opsTotal, evictions uint64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.commits, st.opsTotal, st.evictions
}
