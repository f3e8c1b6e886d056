package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/comm"
	"repro/internal/graph"
)

// TestEmitOverPoisonedSlab guards the in-place record write: Emit and
// EmitTo extend their chunk by a record's width without zeroing it, so
// every byte of a record must be stored by the destination write or the
// codec's put. After the emit size class of the slab is filled with 0xA5,
// one dense and one sparse pass per Wire type must decode the same records
// and ship the same update frames, byte for byte, as on a drained pool,
// whose chunks start zeroed. A codec that wrote fewer bytes than its width
// would leak the poison into both.
func TestEmitOverPoisonedSlab(t *testing.T) {
	g := graph.RMAT(11, 8, graph.Graph500Params(), 3) // several chunks per machine
	emitOverPoison(t, g, func(dst, src graph.VertexID) struct{} { return struct{}{} })
	emitOverPoison(t, g, func(dst, src graph.VertexID) uint32 { return uint32(src)*2654435761 ^ uint32(dst) })
	emitOverPoison(t, g, func(dst, src graph.VertexID) int32 { return -int32(src) - int32(dst)<<16 })
	emitOverPoison(t, g, func(dst, src graph.VertexID) int64 { return -int64(src)<<40 - int64(dst) })
	emitOverPoison(t, g, func(dst, src graph.VertexID) float32 { return float32(src) / float32(dst+1) })
	emitOverPoison(t, g, func(dst, src graph.VertexID) float64 { return -float64(src) / float64(dst+3) })
	emitOverPoison(t, g, func(dst, src graph.VertexID) WeightedPick {
		return WeightedPick{Sum: float64(dst) / float64(src+7), Cand: uint32(src) ^ 0x5a5a0000}
	})
}

func emitOverPoison[M Wire](t *testing.T, g *graph.Graph, msg func(dst, src graph.VertexID) M) {
	t.Run(fmt.Sprintf("%T", *new(M)), func(t *testing.T) {
		for range 2 * 64 { // drain the class: the next chunks are made, zeroed
			bufpool.Get(emitChunkBytes)
		}
		fresh := emitPasses(t, g, msg)
		poison := make([][]byte, 64)
		for i := range poison {
			b := bufpool.Get(emitChunkBytes)
			b = b[:cap(b)]
			for j := range b {
				b[j] = 0xA5
			}
			poison[i] = b
		}
		for _, b := range poison {
			bufpool.Put(b)
		}
		if got := emitPasses(t, g, msg); !reflect.DeepEqual(got, fresh) {
			t.Fatal("records or update frames differ over a poisoned slab")
		}
	})
}

// emitPasses runs one dense pass (a record per in-edge) and one sparse
// pass (a record per out-edge of every vertex) on a 4-node cluster and
// returns what each master's Slot decoded, in arrival order, and every
// update frame sent, sorted by sender, receiver and tag.
func emitPasses[M Wire](t *testing.T, g *graph.Graph, msg func(dst, src graph.VertexID) M) [][]string {
	const nodes = 4
	var mu sync.Mutex
	var frames []string
	mc := comm.NewMemCluster(nodes)
	eps := make([]comm.Endpoint, nodes)
	for i := range eps {
		eps[i] = frameRecorder{mc.Endpoint(comm.NodeID(i)), &mu, &frames}
	}
	c := mustCluster(t, g, Options{NumNodes: nodes, Mode: ModeGemini, Workers: 1, Endpoints: eps})
	records := make([][]string, nodes)
	err := c.Run(func(w *Worker) error {
		slot := func(dst graph.VertexID, m M) {
			records[w.ID()] = append(records[w.ID()], fmt.Sprintf("%d:%v", dst, m))
		}
		if err := ProcessEdgesDense(w, DenseParams[M]{
			Signal: func(ctx *DenseCtx[M], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for _, u := range srcs {
					ctx.Emit(msg(dst, u))
				}
			},
			Slot: slot,
		}); err != nil {
			return err
		}
		lo, hi := w.MasterRange()
		frontier := make([]graph.VertexID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			frontier = append(frontier, graph.VertexID(v))
		}
		_, err := ProcessEdgesSparse(w, SparseParams[M]{
			Frontier: frontier,
			Signal: func(ctx *SparseCtx[M], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
				for _, d := range dsts {
					ctx.EmitTo(d, msg(d, src))
				}
			},
			Slot: slot,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(frames)
	return append(records, frames)
}

// frameRecorder is an endpoint that keeps a copy of every update frame it
// sends, keyed by sender, receiver and tag.
type frameRecorder struct {
	comm.Endpoint
	mu     *sync.Mutex
	frames *[]string
}

func (e frameRecorder) SendBufs(to comm.NodeID, kind comm.Kind, tag int32, bufs comm.Buffers) error {
	if kind == comm.KindUpdate {
		var frame []byte
		for _, b := range bufs {
			frame = append(frame, b...)
		}
		e.mu.Lock()
		*e.frames = append(*e.frames, fmt.Sprintf("%d>%d/%d %x", e.ID(), to, tag, frame))
		e.mu.Unlock()
	}
	return e.Endpoint.SendBufs(to, kind, tag, bufs)
}
