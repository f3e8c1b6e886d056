package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// CheckpointStats summarizes a store's lifetime activity.
type CheckpointStats struct {
	// Saved counts blobs accepted, Commits iterations fully committed,
	// Restores blobs handed back to recovering workers.
	Saved, Commits, Restores int64
	// CommittedIter is the last globally consistent iteration, -1 when
	// no checkpoint has committed yet.
	CommittedIter int
}

// CheckpointStore is stable storage for superstep snapshots. The engine
// enforces a two-phase rule through it: Save stages one node's blob for
// an iteration, and the iteration commits only once every member node
// has saved it, so a crash landing mid-save can never leave a torn
// snapshot visible to Restore.
//
// Implementations must be safe for concurrent use by the workers of a
// run.
type CheckpointStore interface {
	// SetMembers declares the node IDs that must save an iteration
	// before it commits. The cluster calls it once at construction.
	SetMembers(members []int)
	// Save stages node's blob for iteration iter; the store takes
	// ownership of blob. Saves at or below the committed iteration are
	// ignored (a straggler re-saving the past after a restore).
	Save(node, iter int, blob []byte)
	// Restore returns node's blob at the last committed iteration, or
	// ok=false when nothing has committed.
	Restore(node int) (iter int, blob []byte, ok bool)
	// Clear discards every staged and committed snapshot.
	Clear()
	// Stats reports lifetime counters.
	Stats() CheckpointStats
}

// FileCheckpointStore is the one CheckpointStore. It holds the staged
// and committed blobs in memory; NewFileCheckpointStore's also writes
// them through to a directory — the external stable storage DESIGN.md §5
// names — so a restarted daemon (sgserve) can resume a long query from
// its last committed superstep instead of starting over, while
// NewMemCheckpointStore's, the cluster's default, survives the simulated
// machine deaths of a chaos run but not a process death.
//
// Layout:
//
//	dir/TAG         program identity (see SetTag)
//	dir/CURRENT     committed iteration number, the commit pointer
//	dir/iter-<k>/node-<n>.ckpt   one blob per (iteration, node)
//
// Every write is write-to-temp + atomic rename, and the commit itself
// is a single rename of CURRENT — readers either see the previous
// consistent snapshot or the new one, never a torn mix. An iteration
// commits once every member node's blob is stored, at which point older
// iterations are discarded.
//
// I/O errors never fail the engine (Save is fire-and-forget); a failed
// write simply leaves the iteration uncommitted, and the first error is
// retained for Err.
type FileCheckpointStore struct {
	dir string // "" keeps the blobs in memory only

	mu            sync.Mutex
	members       []int
	committedIter int
	committed     map[int][]byte         // node → blob at committedIter
	staging       map[int]map[int][]byte // iter → node → blob
	firstErr      error

	saved    int64
	commits  int64
	restores int64
}

// NewMemCheckpointStore returns the default, in-memory store.
func NewMemCheckpointStore() CheckpointStore { return newCheckpointStore("") }

func newCheckpointStore(dir string) *FileCheckpointStore {
	return &FileCheckpointStore{dir: dir, committedIter: -1, staging: make(map[int]map[int][]byte)}
}

// NewFileCheckpointStore opens (creating if needed) a file-backed store
// rooted at dir. An existing CURRENT pointer, its blobs and any newer
// staged iteration are adopted, so a store reopened after a process
// death resumes exactly where the previous incarnation committed, and a
// partially saved iteration can still complete.
func NewFileCheckpointStore(dir string) (*FileCheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	s := newCheckpointStore(dir)
	if b, err := os.ReadFile(s.currentPath()); err == nil {
		if it, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil && it >= 0 {
			s.committedIter, s.committed = it, make(map[int][]byte)
		}
	}
	paths, err := filepath.Glob(filepath.Join(dir, "iter-*", "node-*.ckpt"))
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	for _, path := range paths {
		var iter, node int
		rel, _ := filepath.Rel(dir, path)
		if _, err := fmt.Sscanf(filepath.ToSlash(rel), "iter-%d/node-%d.ckpt", &iter, &node); err != nil || iter < s.committedIter {
			continue
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if iter == s.committedIter {
			s.committed[node] = blob
		} else {
			s.stage(iter, node, blob)
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *FileCheckpointStore) Dir() string { return s.dir }

func (s *FileCheckpointStore) currentPath() string { return filepath.Join(s.dir, "CURRENT") }
func (s *FileCheckpointStore) tagPath() string     { return filepath.Join(s.dir, "TAG") }
func (s *FileCheckpointStore) iterDir(iter int) string {
	return filepath.Join(s.dir, fmt.Sprintf("iter-%d", iter))
}

// writeAtomic writes data to path via a temp file and rename, so a
// crash mid-write leaves either the old content or the new, never a
// truncated file.
func (s *FileCheckpointStore) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// fail records the store's first I/O error.
func (s *FileCheckpointStore) fail(err error) {
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// Err returns the first I/O error the store swallowed (Save never fails
// the engine), nil when everything landed.
func (s *FileCheckpointStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// SetMembers declares the committing quorum.
func (s *FileCheckpointStore) SetMembers(members []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.members = append([]int(nil), members...)
}

// SetTag binds the store to a program identity (e.g. a canonical query
// key). When the directory already carries a different tag, every
// snapshot in it is discarded first — a reused directory never resumes
// the wrong program. Returns true when the existing content was kept
// (same tag), false when it was wiped or the tag is new.
func (s *FileCheckpointStore) SetTag(tag string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, err := os.ReadFile(s.tagPath())
	same := err == nil && string(old) == tag
	if !same {
		s.clearLocked()
		if err := s.writeAtomic(s.tagPath(), []byte(tag)); err != nil {
			s.fail(err)
		}
	}
	return same
}

// stage records node's blob for iteration iter.
func (s *FileCheckpointStore) stage(iter, node int, blob []byte) map[int][]byte {
	blobs, ok := s.staging[iter]
	if !ok {
		blobs = make(map[int][]byte, len(s.members))
		s.staging[iter] = blobs
	}
	blobs[node] = blob
	return blobs
}

// Save stores node's blob for iteration iter and commits the iteration
// when every member has saved it.
func (s *FileCheckpointStore) Save(node, iter int, blob []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if iter <= s.committedIter {
		return
	}
	if s.dir != "" {
		path := filepath.Join(s.iterDir(iter), fmt.Sprintf("node-%d.ckpt", node))
		if err := os.MkdirAll(s.iterDir(iter), 0o755); err != nil {
			s.fail(err)
			return
		}
		if err := s.writeAtomic(path, blob); err != nil {
			s.fail(err)
			return
		}
	}
	blobs := s.stage(iter, node, blob)
	s.saved++
	for _, m := range s.members {
		if _, ok := blobs[m]; !ok {
			return
		}
	}
	// All members saved: move the commit pointer, then prune history.
	if s.dir != "" {
		if err := s.writeAtomic(s.currentPath(), []byte(strconv.Itoa(iter))); err != nil {
			s.fail(err)
			return
		}
		for k := s.committedIter; k < iter; k++ {
			os.RemoveAll(s.iterDir(k))
		}
	}
	s.committedIter, s.committed = iter, blobs
	s.commits++
	for k := range s.staging {
		if k <= iter {
			delete(s.staging, k)
		}
	}
}

// Restore returns node's blob at the last committed iteration.
func (s *FileCheckpointStore) Restore(node int) (iter int, blob []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if blob, ok = s.committed[node]; !ok || s.committedIter < 0 {
		return 0, nil, false
	}
	s.restores++
	return s.committedIter, blob, true
}

// Clear discards every snapshot (the TAG survives).
func (s *FileCheckpointStore) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clearLocked()
}

func (s *FileCheckpointStore) clearLocked() {
	s.committedIter, s.committed = -1, nil
	s.staging = make(map[int]map[int][]byte)
	if s.dir == "" {
		return
	}
	os.Remove(s.currentPath())
	dirs, _ := filepath.Glob(filepath.Join(s.dir, "iter-*"))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// Stats reports lifetime counters of this store instance (a reopened
// store starts its counters fresh but adopts the committed iteration).
func (s *FileCheckpointStore) Stats() CheckpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CheckpointStats{Saved: s.saved, Commits: s.commits, Restores: s.restores, CommittedIter: s.committedIter}
}
