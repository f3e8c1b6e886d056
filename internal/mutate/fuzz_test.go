package mutate

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzBatchCodec: any byte string the decoder accepts must re-encode
// to the identical bytes (the canonical encoding is what the chained
// fingerprint hashes, so two spellings of one batch would fork the
// version chain).
func FuzzBatchCodec(f *testing.F) {
	f.Add(Batch{Ops: []Mutation{{Op: OpAddEdge, Src: 1, Dst: 2, Weight: 0.5}}}.Encode())
	f.Add(Batch{Ops: []Mutation{
		{Op: OpRemoveEdge, Src: 7, Dst: 7},
		{Op: OpAddVertex},
		{Op: OpRemoveVertex, Src: 0},
	}}.Encode())
	f.Add([]byte("SGM1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		enc := b.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical: %x -> %x", data, enc)
		}
		b2, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if len(b2.Ops) != len(b.Ops) {
			t.Fatalf("op count changed across round-trip")
		}
	})
}

// batchFromBytes reads an ordered batch over a graph of n vertices from
// fuzz bytes, three per op: kind, src, dst. Every op it returns is
// valid where it stands in the batch.
func batchFromBytes(data []byte, n int) Batch {
	var b Batch
	for i := 0; i+2 < len(data); i += 3 {
		src, dst := graph.VertexID(int(data[i+1])%n), graph.VertexID(int(data[i+2])%n)
		switch data[i] % 8 {
		case 0:
			b.Ops = append(b.Ops, Mutation{Op: OpAddVertex})
			n++
		case 1:
			b.Ops = append(b.Ops, Mutation{Op: OpRemoveVertex, Src: src})
		case 2, 3:
			b.Ops = append(b.Ops, Mutation{Op: OpRemoveEdge, Src: src, Dst: dst})
		default:
			b.Ops = append(b.Ops, Mutation{Op: OpAddEdge, Src: src, Dst: dst, Weight: float32(data[i] / 8)})
		}
	}
	return b
}

// FuzzDiffApply drives two graphs from fuzz bytes and asserts the
// delta property the shipping path relies on:
// Apply(old, Diff(old, new)) == new. It then reads the second byte
// string as an ordered batch and asserts the commit identities:
// Apply matches the map-and-sort reference array for array, the
// effective delta is Diff's, and the patched undirected variant is
// Symmetrize's.
func FuzzDiffApply(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5}, false)
	f.Add([]byte{0xff, 0x00, 0x10}, []byte{}, true)
	f.Add([]byte{}, []byte{1, 1, 1, 1, 1, 1}, false)
	// remove-vertex 1 then add-edge 1→2; add-vertex, an arc onto it, add
	// then remove 3→4; a self loop.
	f.Add([]byte{1, 2, 2, 3, 3, 1}, []byte{1, 1, 0, 4, 1, 2, 0, 0, 0, 4, 0, 8, 4, 3, 4, 2, 3, 4, 12, 5, 5}, false)
	f.Add([]byte{1, 2, 2, 3, 3, 1, 1, 2}, []byte{20, 1, 2, 36, 1, 2, 2, 2, 3, 1, 3, 0, 4, 3, 1}, true)
	f.Fuzz(func(t *testing.T, oldBytes, newBytes []byte, weighted bool) {
		build := func(data []byte, n int) *graph.Graph {
			edges := make([]graph.Edge, 0, len(data)/2)
			for i := 0; i+1 < len(data); i += 2 {
				e := graph.Edge{
					Src:    graph.VertexID(data[i]) % graph.VertexID(n),
					Dst:    graph.VertexID(data[i+1]) % graph.VertexID(n),
					Weight: 1,
				}
				if weighted {
					e.Weight = float32(int(data[i])%7 + 1)
				}
				edges = append(edges, e)
			}
			g, err := graph.FromEdges(n, edges, graph.BuildOptions{Weighted: weighted, Dedupe: true})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			return g
		}
		oldN := 8 + len(oldBytes)%8
		newN := oldN + len(newBytes)%4 // vertex slots only grow
		oldG := build(oldBytes, oldN)
		newG := build(newBytes, newN)
		if b := batchFromBytes(newBytes, oldN); len(b.Ops) > 0 {
			checkCommit(t, oldG, graph.Symmetrize(oldG), b)
		}
		d, err := Diff(oldG, newG)
		if err != nil {
			t.Fatalf("diff: %v", err)
		}
		if len(d.Ops) == 0 {
			if !Equal(oldG, newG) {
				t.Fatal("empty diff between unequal graphs")
			}
			return
		}
		// The canonical delta must survive the wire.
		rt, err := DecodeBatch(d.Encode())
		if err != nil {
			t.Fatalf("delta codec round-trip: %v", err)
		}
		got, err := Apply(oldG, rt)
		if err != nil {
			t.Fatalf("apply(diff): %v", err)
		}
		if !Equal(got, newG) {
			t.Fatal("apply(diff(old, new)) != new")
		}
		// And the chained fingerprint is reproducible from the wire form.
		if ChainFingerprint("fp", d.Encode()) != ChainFingerprint("fp", rt.Encode()) {
			t.Fatal("fingerprint chain not stable across codec round-trip")
		}
	})
}
