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
// epochs age out so pinned queries can't hold memory forever; a query
// pinning an aged-out epoch gets a clean 4xx, not a torn answer.
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
// computed lazily, once, only if a cold worker actually needs a full
// ship; delta shipping never touches them.
type Snapshot struct {
	epoch    uint64
	g        *graph.Graph
	fp       string
	parentFP string
	delta    Batch // empty for the root snapshot
	eff      Batch // what delta changes, in Diff's canonical form

	blobOnce sync.Once
	blob     []byte
	blobSHA  string
	blobErr  error
}

// Epoch returns the snapshot's version number (root = 1).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Graph returns the immutable graph at this epoch.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

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
// it with its sha256, memoized. The sha travels next to full-graph
// ships so the receiver can verify the transfer; the chained
// fingerprint cannot serve that role because a worker holding only the
// blob cannot recompute the chain.
func (s *Snapshot) Blob() ([]byte, string, error) {
	s.blobOnce.Do(func() {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, s.g); err != nil {
			s.blobErr = fmt.Errorf("mutate: serialize snapshot @%d: %w", s.epoch, err)
			return
		}
		s.blob = buf.Bytes()
		sum := sha256.Sum256(s.blob)
		s.blobSHA = hex.EncodeToString(sum[:])
	})
	return s.blob, s.blobSHA, s.blobErr
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
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Store{
		snaps:     []*Snapshot{{epoch: 1, g: g, fp: fp}},
		retention: retention,
	}, nil
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
// resulting epoch, pruning past the retention window. The caller must
// serialize Commit calls per store.
func (st *Store) Commit(b Batch) (*Snapshot, error) {
	parent := st.Latest()
	ng, eff, err := apply(parent.g, b)
	if err != nil {
		return nil, err
	}
	child := &Snapshot{
		epoch:    parent.epoch + 1,
		g:        ng,
		fp:       ChainFingerprint(parent.fp, b.Encode()),
		parentFP: parent.fp,
		delta:    b,
		eff:      eff,
	}
	st.mu.Lock()
	st.snaps = append(st.snaps, child)
	st.commits++
	st.opsTotal += uint64(len(b.Ops))
	for len(st.snaps) > st.retention {
		st.snaps[0] = nil // release the graph; the slice header still pins the array
		st.snaps = st.snaps[1:]
		st.evictions++
	}
	st.mu.Unlock()
	return child, nil
}

// Stats reports commit counters for /statusz.
func (st *Store) Stats() (commits, opsTotal, evictions uint64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.commits, st.opsTotal, st.evictions
}
