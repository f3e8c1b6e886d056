package algorithms

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// goldenRow is one cell of the golden-counter table: the exact work and
// traffic counters of one dependency algorithm under one configuration,
// plus a digest of everything the algorithm returned.
type goldenRow struct {
	edges, skipped, supersteps int64
	updateB, depB, controlB    int64
	digest                     uint64
}

// goldenCounters was pinned at the commit before the dense pass moved
// from a per-destination ActiveDst closure over position lists to bitmap
// filters over packed per-class streams, with Workers == 1, where the
// engine is deterministic. Every counter and every result byte is a
// function of the visit order and of the records emitted, so an engine
// that reproduces this table visits the same (destination, block) pairs,
// scans the same neighbors, breaks at the same ones and ships the same
// update and dependency frames. A deliberate change to partition cuts,
// the threshold or the schedule re-pins it once; a refactor of the scan
// must not move it. Re-pinned once when passes stopped ending in an
// all-reduce: edges, skips, supersteps, dependency bytes and every digest
// held; control bytes fell (no reduces, no frontier statistic, K-core's
// result gathered instead of all-gathered), and BFS's update bytes rose by
// the 8-byte count each sparse frame now starts with. Re-pinned once more,
// K-means and MIS rows only, when K-means' adoption rounds and MIS's cover
// pass began to push from small frontiers (Beamer's switch, as BFS does):
// supersteps, control bytes and every digest held; edges, skips and
// dependency bytes fell (pushed passes scan no in-edges and circulate no
// dependency state), and update bytes moved (push emits one record per
// frontier edge to an open destination, behind an 8-byte count). Re-pinned
// once more, update bytes only, when the sparse header grew from the
// count to count + least (the minimum SSSP's bucket bound advances on):
// every sparse frame is 8 bytes longer, so BFS, MIS and K-means rows rose
// by 8 B per remote frame of their pushed passes and nothing else moved.
// Re-pinned once more, Sampling's SympleGraph dependency bytes only
// (both tables), when a pass began to declare what it carries: Sampling's
// setup pass carries a lane and never breaks, so its frames stopped
// shipping all-zero skip words; every other counter and digest held.
var goldenCounters = map[string]goldenRow{
	"bfs/gemini/n2":           {2219, 0, 10, 6946, 0, 11186, 0xfb50a439f7bac106},
	"bfs/gemini/n4":           {2790, 0, 20, 13748, 0, 17570, 0xc816ee75619cfd21},
	"bfs/symplegraph/n2":      {2164, 44, 10, 6946, 116, 11186, 0xfb50a439f7bac106},
	"bfs/symplegraph/n4":      {2622, 121, 20, 13204, 600, 17570, 0xc816ee75619cfd21},
	"kcore/gemini/n2":         {26033, 0, 8, 48428, 0, 6057, 0xeb1481b0eeb06661},
	"kcore/gemini/n4":         {39441, 0, 16, 125988, 0, 9035, 0xeb1481b0eeb06661},
	"kcore/symplegraph/n2":    {20249, 1445, 8, 48428, 328, 6057, 0xeb1481b0eeb06661},
	"kcore/symplegraph/n4":    {23961, 4117, 16, 94164, 1296, 9035, 0xeb1481b0eeb06661},
	"mis/gemini/n2":           {11197, 0, 16, 7752, 0, 7117, 0x39460f652a40e120},
	"mis/gemini/n4":           {14152, 0, 32, 16064, 0, 12503, 0x39460f652a40e120},
	"mis/symplegraph/n2":      {10301, 393, 16, 7752, 410, 7117, 0x39460f652a40e120},
	"mis/symplegraph/n4":      {11308, 1152, 32, 13564, 1620, 12503, 0x39460f652a40e120},
	"kmeans/gemini/n2":        {12486, 0, 20, 18980, 0, 13356, 0x78d0a2b4e298d00},
	"kmeans/gemini/n4":        {17753, 0, 40, 36488, 0, 22342, 0xd32b6f2552638a08},
	"kmeans/symplegraph/n2":   {10739, 530, 20, 18980, 410, 13356, 0x78d0a2b4e298d00},
	"kmeans/symplegraph/n4":   {12610, 1562, 40, 31552, 1620, 22342, 0xd32b6f2552638a08},
	"sampling/gemini/n2":      {41523, 0, 6, 53166, 0, 15441, 0xeb9a3b468a57d39e},
	"sampling/gemini/n4":      {41523, 0, 12, 116004, 0, 21747, 0xae5d78690d5554af},
	"sampling/symplegraph/n2": {38222, 283, 8, 46824, 7464, 31851, 0x316da2225974cd06},
	"sampling/symplegraph/n4": {37924, 951, 16, 92096, 22848, 71055, 0xd91ee7fa082c61ec},
}

// goldenCountersB2 is the same table at NumBuffers 2, pinned when the
// dense driver began to cut a step's dependency state into NumBuffers
// segments: the rows are goldenCounters' but for depB, which grows by 13
// bytes per extra frame. Its K-means and MIS rows were re-pinned with
// goldenCounters', for the same reason.
var goldenCountersB2 = map[string]goldenRow{
	"bfs/gemini/n2":           {2219, 0, 10, 6946, 0, 11186, 0xfb50a439f7bac106},
	"bfs/gemini/n4":           {2790, 0, 20, 13748, 0, 17570, 0xc816ee75619cfd21},
	"bfs/symplegraph/n2":      {2164, 44, 10, 6946, 142, 11186, 0xfb50a439f7bac106},
	"bfs/symplegraph/n4":      {2622, 121, 20, 13204, 756, 17570, 0xc816ee75619cfd21},
	"kcore/gemini/n2":         {26033, 0, 8, 48428, 0, 6057, 0xeb1481b0eeb06661},
	"kcore/gemini/n4":         {39441, 0, 16, 125988, 0, 9035, 0xeb1481b0eeb06661},
	"kcore/symplegraph/n2":    {20249, 1445, 8, 48428, 432, 6057, 0xeb1481b0eeb06661},
	"kcore/symplegraph/n4":    {23961, 4117, 16, 94164, 1764, 9035, 0xeb1481b0eeb06661},
	"mis/gemini/n2":           {11197, 0, 16, 7752, 0, 7117, 0x39460f652a40e120},
	"mis/gemini/n4":           {14152, 0, 32, 16064, 0, 12503, 0x39460f652a40e120},
	"mis/symplegraph/n2":      {10301, 393, 16, 7752, 540, 7117, 0x39460f652a40e120},
	"mis/symplegraph/n4":      {11308, 1152, 32, 13564, 2205, 12503, 0x39460f652a40e120},
	"kmeans/gemini/n2":        {12486, 0, 20, 18980, 0, 13356, 0x78d0a2b4e298d00},
	"kmeans/gemini/n4":        {17753, 0, 40, 36488, 0, 22342, 0xd32b6f2552638a08},
	"kmeans/symplegraph/n2":   {10739, 530, 20, 18980, 540, 13356, 0x78d0a2b4e298d00},
	"kmeans/symplegraph/n4":   {12610, 1562, 40, 31552, 2205, 22342, 0xd32b6f2552638a08},
	"sampling/gemini/n2":      {41523, 0, 6, 53166, 0, 15441, 0xeb9a3b468a57d39e},
	"sampling/gemini/n4":      {41523, 0, 12, 116004, 0, 21747, 0xae5d78690d5554af},
	"sampling/symplegraph/n2": {38222, 283, 8, 46824, 7516, 31851, 0x316da2225974cd06},
	"sampling/symplegraph/n4": {37924, 951, 16, 92096, 23160, 71055, 0xd91ee7fa082c61ec},
}

// digest folds result arrays into one FNV-1a value.
type digest struct{ hash.Hash64 }

func (d digest) u64(xs ...uint64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		d.Write(b[:])
	}
}

func (d digest) u32s(xs []uint32) {
	for _, x := range xs {
		d.u64(uint64(x))
	}
}

func (d digest) i32s(xs []int32) {
	for _, x := range xs {
		d.u64(uint64(uint32(x)))
	}
}

func (d digest) bools(xs []bool) {
	for _, x := range xs {
		if x {
			d.u64(1)
		} else {
			d.u64(0)
		}
	}
}

// runGolden runs algo on c and returns the digest of its whole result.
func runGolden(t *testing.T, algo string, c *core.Cluster) uint64 {
	t.Helper()
	d := digest{fnv.New64a()}
	var err error
	switch algo {
	case "bfs":
		var res *BFSResult
		root, _ := graph.LargestOutDegreeVertex(c.Graph())
		if res, err = BFS(c, root); err == nil {
			d.u32s(res.Parent)
			d.i32s(res.Depth)
			d.u64(uint64(res.TopDownSteps), uint64(res.BottomUpSteps))
		}
	case "kcore":
		var res *KCoreResult
		if res, err = KCore(c, 4); err == nil {
			d.bools(res.InCore)
			d.u64(uint64(res.Rounds))
		}
	case "mis":
		var res *MISResult
		if res, err = MIS(c, 7); err == nil {
			d.bools(res.InMIS)
			d.u64(uint64(res.Rounds))
		}
	case "kmeans":
		res, kerr := KMeans(c, 8, 2, 7)
		if err = kerr; err == nil {
			d.u32s(res.Cluster)
			d.i32s(res.Dist)
			for _, cv := range res.Centers {
				d.u64(uint64(cv))
			}
			for _, s := range res.DistSums {
				d.u64(uint64(s))
			}
			d.u64(uint64(res.Rounds))
		}
	case "sampling":
		var res *SampleResult
		if res, err = Sample(c, 7, 3); err == nil {
			for _, p := range res.Picks {
				d.u32s(p)
			}
			d.u64(uint64(res.ExactPicks))
		}
	default:
		t.Fatalf("unknown algorithm %q", algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d.Sum64()
}

// goldenAt runs one cell of the table at the given NumBuffers.
func goldenAt(t *testing.T, algo string, g *graph.Graph, mode core.Mode, nodes, buffers int) (goldenRow, int64) {
	t.Helper()
	c, err := core.NewCluster(g, core.Options{NumNodes: nodes, Mode: mode, DepThreshold: 16, NumBuffers: buffers})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := goldenRow{digest: runGolden(t, algo, c)}
	s := c.Stats().Totals
	got.edges, got.skipped, got.supersteps = s.EdgesTraversed, s.VerticesSkipped, s.Supersteps
	got.updateB, got.depB, got.controlB = s.UpdateBytes, s.DependencyBytes, s.ControlBytes
	return got, s.DependencyMessages
}

// TestGoldenCounters holds the five dependency algorithms × both modes ×
// {2, 4} machines to the pinned tables: NumBuffers 1 to goldenCounters,
// recorded while a dense step sent its dependency state as one frame
// whatever NumBuffers said, and NumBuffers 2 to goldenCountersB2. The
// second table may differ from the first only in dependency bytes, and
// only by comm's 13-byte accounted header per extra frame the split
// sends — asserted here against the measured frame counts rather than
// trusted to the paste.
func TestGoldenCounters(t *testing.T) {
	const frameHeader = 13
	base := graph.RMAT(11, 8, graph.Graph500Params(), 20)
	sym := graph.Symmetrize(base)
	for _, algo := range []string{"bfs", "kcore", "mis", "kmeans", "sampling"} {
		for _, mode := range []core.Mode{core.ModeGemini, core.ModeSympleGraph} {
			for _, nodes := range []int{2, 4} {
				name := fmt.Sprintf("%s/%v/n%d", algo, mode, nodes)
				t.Run(name, func(t *testing.T) {
					g := sym
					if algo == "bfs" || algo == "sampling" {
						g = base
					}
					report := func(buffers int, got, pinned goldenRow) {
						t.Errorf("NumBuffers %d: counters moved; got\n\t%q: {%d, %d, %d, %d, %d, %d, %#x},\npinned\n\t%+v",
							buffers, name, got.edges, got.skipped, got.supersteps,
							got.updateB, got.depB, got.controlB, got.digest, pinned)
					}
					one, framesOne := goldenAt(t, algo, g, mode, nodes, 1)
					if one != goldenCounters[name] {
						report(1, one, goldenCounters[name])
					}
					two, framesTwo := goldenAt(t, algo, g, mode, nodes, 2)
					if two != goldenCountersB2[name] {
						report(2, two, goldenCountersB2[name])
					}
					if mode == core.ModeSympleGraph && framesTwo <= framesOne {
						t.Errorf("%d dependency frames at NumBuffers 2, %d at 1: nothing was split", framesTwo, framesOne)
					}
					want := one
					want.depB += frameHeader * (framesTwo - framesOne)
					if two != want {
						t.Errorf("NumBuffers 2 differs from NumBuffers 1 by more than %d extra frame headers:\n\t%+v\n\t%+v",
							framesTwo-framesOne, two, one)
					}
				})
			}
		}
	}
}
