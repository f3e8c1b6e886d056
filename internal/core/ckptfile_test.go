package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFileCheckpointStoreSurvivesReopen simulates a process death: a
// second store opened on the same directory adopts the committed
// snapshot and the partially staged iteration left behind.
func TestFileCheckpointStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.SetMembers([]int{0, 1})
	s1.Save(0, 4, []byte("c0"))
	s1.Save(1, 4, []byte("c1"))
	s1.Save(0, 8, []byte("d0")) // staged, not committed

	// "Process death": reopen on the same directory.
	s2, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetMembers([]int{0, 1})
	if got := s2.Stats().CommittedIter; got != 4 {
		t.Fatalf("reopened CommittedIter = %d, want 4", got)
	}
	iter, blob, ok := s2.Restore(1)
	if !ok || iter != 4 || !bytes.Equal(blob, []byte("c1")) {
		t.Fatalf("Restore(1) = (%d, %q, %v), want (4, c1, true)", iter, blob, ok)
	}
	// The staged iteration completes across the reopen.
	s2.Save(1, 8, []byte("d1"))
	iter, blob, ok = s2.Restore(0)
	if !ok || iter != 8 || !bytes.Equal(blob, []byte("d0")) {
		t.Fatalf("after completing staged iter: Restore(0) = (%d, %q, %v), want (8, d0, true)", iter, blob, ok)
	}
	if err := s2.Err(); err != nil {
		t.Fatalf("store error: %v", err)
	}
}

// TestFileCheckpointStoreTag checks program-identity binding: the same
// tag keeps snapshots, a different tag wipes them.
func TestFileCheckpointStoreTag(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetMembers([]int{0})
	s.SetTag("bfs/root=3")
	s.Save(0, 2, []byte("x"))
	if _, _, ok := s.Restore(0); !ok {
		t.Fatal("commit missing")
	}

	s2, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetMembers([]int{0})
	if kept := s2.SetTag("bfs/root=3"); !kept {
		t.Fatal("same tag wiped the store")
	}
	if _, _, ok := s2.Restore(0); !ok {
		t.Fatal("same tag lost the snapshot")
	}
	if kept := s2.SetTag("bfs/root=9"); kept {
		t.Fatal("different tag kept the store")
	}
	if _, _, ok := s2.Restore(0); ok {
		t.Fatal("different tag leaked the old snapshot")
	}
}

// TestFileCheckpointStoreAtomicLayout checks that no temp files survive
// a commit and the committed blobs live where a recovering process
// expects them.
func TestFileCheckpointStoreAtomicLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetMembers([]int{0, 1})
	s.Save(0, 2, []byte("a"))
	s.Save(1, 2, []byte("b"))
	s.Save(0, 4, []byte("c"))
	s.Save(1, 4, []byte("d"))

	if b, err := os.ReadFile(filepath.Join(dir, "CURRENT")); err != nil || string(b) != "4" {
		t.Fatalf("CURRENT = %q, %v; want 4", b, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "iter-2")); !os.IsNotExist(err) {
		t.Fatalf("superseded iter-2 not pruned: %v", err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*", ".tmp-*"))
	more, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if n := len(matches) + len(more); n != 0 {
		t.Fatalf("%d temp files left behind", n)
	}
}

// Cluster-level coverage (chaos recovery through the file store, and
// resuming a program across a simulated process restart) lives in
// internal/algorithms/filestore_test.go, where the checkpointing
// programs are.
