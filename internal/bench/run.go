package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gluon"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/xrand"
)

// Algo names the five evaluated algorithms.
type Algo string

// The paper's five algorithms (§2.1).
const (
	AlgoBFS      Algo = "BFS"
	AlgoMIS      Algo = "MIS"
	AlgoKCore    Algo = "K-core"
	AlgoKMeans   Algo = "K-means"
	AlgoSampling Algo = "Sampling"
)

// Algos lists all five in the paper's table order.
var Algos = []Algo{AlgoBFS, AlgoKCore, AlgoMIS, AlgoKMeans, AlgoSampling}

// Undirected reports whether the algorithm runs on the symmetrized graph
// (the paper's methodology for MIS, K-core, K-means).
func (a Algo) Undirected() bool {
	return a == AlgoMIS || a == AlgoKCore || a == AlgoKMeans
}

// Variant is a system under measurement — one of the paper's comparison
// or an ablation point of Figure 11. Mode, DepThreshold and NumBuffers
// configure the engine; the D-Galois and sequential variants leave them
// zero.
type Variant struct {
	Name         string
	Mode         core.Mode
	DepThreshold int
	NumBuffers   int
}

// The measured systems and ablation variants.
var (
	// VariantGemini is the baseline system.
	VariantGemini = Variant{Name: "Gemini", Mode: core.ModeGemini, NumBuffers: 1}
	// VariantSympleGraph is the full system: circulant scheduling +
	// differentiated propagation (threshold 32) + double buffering.
	VariantSympleGraph = Variant{Name: "SympleGraph", Mode: core.ModeSympleGraph, DepThreshold: core.DefaultDepThreshold, NumBuffers: 2}
	// VariantCirculant is Figure 11's base: circulant scheduling only.
	VariantCirculant = Variant{Name: "Circulant", Mode: core.ModeSympleGraph, DepThreshold: 0, NumBuffers: 1}
	// VariantDB adds double buffering only.
	VariantDB = Variant{Name: "Circulant+DB", Mode: core.ModeSympleGraph, DepThreshold: 0, NumBuffers: 2}
	// VariantDP adds differentiated propagation only.
	VariantDP = Variant{Name: "Circulant+DP", Mode: core.ModeSympleGraph, DepThreshold: core.DefaultDepThreshold, NumBuffers: 1}
	// VariantDGalois is the D-Galois baseline (internal/gluon). It has no
	// sampling (§7.1), so its Sampling cells are unsupported.
	VariantDGalois = Variant{Name: "D-Galois"}
	// VariantSequential is the single-thread reference, the COST
	// baseline: GAPBS-style BFS, greedy MIS, the linear-time Matula–Beck
	// K-core.
	VariantSequential = Variant{Name: "sequential"}
)

// Config are experiment-wide knobs, shared across systems so every cell
// runs the identical workload.
type Config struct {
	// Nodes is the simulated cluster size (Cluster-A uses 16, most
	// per-table runs 8).
	Nodes int
	// Workers is the per-node worker-thread count.
	Workers int
	// Seed drives every deterministic draw.
	Seed uint64
	// BFSRoots is the number of BFS sources averaged (paper: 64).
	BFSRoots int
	// KCoreK is Table 4/5/6's K (Table 2 sweeps it).
	KCoreK int
	// KMeansIters is the number of outer K-means iterations (paper: 20).
	KMeansIters int
	// SampleRounds is the number of sampling rounds.
	SampleRounds int
	// Link is the simulated interconnect (nil selects
	// comm.DefaultLink; use &comm.LinkModel{} for instant delivery in
	// correctness-only runs).
	Link *comm.LinkModel
	// Repeats re-runs each cell, the sequential one included, and keeps
	// the fastest time (work and traffic are deterministic across
	// repeats). Defaults to 1.
	Repeats int
	// Tracer, when non-nil, records per-phase spans for every cell that
	// runs on core.Cluster: the Gemini/SympleGraph variants and D-Galois
	// (the sequential baseline is not traced).
	Tracer *obs.Tracer
	// StallTimeout bounds every receive of those same cells, D-Galois
	// included.
	StallTimeout time.Duration
	// CheckpointEvery, MaxRestarts and Fault thread the rest of the
	// resilience policy into the Gemini/SympleGraph cells — benchmarking
	// under chaos measures recovery overhead with the usual metrics.
	// D-Galois and sequential cells run without them: gluon rounds are
	// not edge-processing passes, so they never advance the fault plan's
	// superstep counter that crashes and partition windows key on, and
	// they take no checkpoints to recover from.
	CheckpointEvery int
	MaxRestarts     int
	Fault           *comm.FaultPlan
}

// Defaults fills zero fields with the harness defaults.
func (c Config) Defaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.BFSRoots == 0 {
		c.BFSRoots = 4
	}
	if c.KCoreK == 0 {
		c.KCoreK = 8
	}
	if c.KMeansIters == 0 {
		c.KMeansIters = 3
	}
	if c.SampleRounds == 0 {
		c.SampleRounds = 4
	}
	if c.Link == nil {
		c.Link = comm.DefaultLink()
	}
	if c.Repeats == 0 {
		c.Repeats = 1
	}
	return c
}

// Measurement is one (system, algorithm, dataset) cell.
type Measurement struct {
	System, Dataset string
	Algo            Algo
	Seconds         float64
	EdgesTraversed  int64
	UpdateBytes     int64
	DependencyBytes int64
	ControlBytes    int64
	// DependencyWaitSeconds and UpdateWaitSeconds sum the per-node time
	// blocked on dependency and update receives (zero for systems that
	// do not report them).
	DependencyWaitSeconds float64
	UpdateWaitSeconds     float64
	// Supported is false for cells the system cannot run (D-Galois has
	// no sampling implementation, §7.1).
	Supported bool

	// dependencyFrames counts the dependency messages behind
	// DependencyBytes, so a test can take the accounted frame headers
	// off and compare payloads across NumBuffers.
	dependencyFrames int64
}

// TotalBytes returns the cell's total sent traffic.
func (m Measurement) TotalBytes() int64 {
	return m.UpdateBytes + m.DependencyBytes + m.ControlBytes
}

// bfsRoots draws deterministic non-isolated roots, as the paper draws
// "64 randomly generated non-isolated roots".
func bfsRoots(g *graph.Graph, seed uint64, n int) []graph.VertexID {
	candidates := graph.NonIsolatedVertices(g)
	if len(candidates) == 0 {
		return nil
	}
	roots := make([]graph.VertexID, 0, n)
	for i := 0; i < n; i++ {
		roots = append(roots, candidates[xrand.Intn(len(candidates), seed, 0xb0075, uint64(i))])
	}
	return roots
}

// options turns a variant and a defaulted config into the options of the
// cell's cluster. D-Galois cells get no checkpoint, restart or fault
// fields, for the reason Config gives.
func options(v Variant, cfg Config) core.Options {
	o := core.Options{
		NumNodes:     cfg.Nodes,
		Mode:         v.Mode,
		DepThreshold: v.DepThreshold,
		NumBuffers:   v.NumBuffers,
		Workers:      cfg.Workers,
		Link:         cfg.Link,
		Tracer:       cfg.Tracer,
		StallTimeout: cfg.StallTimeout,
	}
	if v != VariantDGalois {
		o.CheckpointEvery, o.MaxRestarts, o.Fault = cfg.CheckpointEvery, cfg.MaxRestarts, cfg.Fault
	}
	return o
}

// Run measures one cell: variant v running algorithm a on dataset d,
// cfg.Repeats times, keeping the fastest wall time (the workload is
// deterministic, so work and traffic are identical across repeats).
func Run(v Variant, a Algo, d *Dataset, cfg Config) (Measurement, error) {
	cfg = cfg.Defaults()
	var best Measurement
	for r := 0; r < cfg.Repeats; r++ {
		m, err := runOnce(v, a, d, cfg)
		if err != nil {
			return m, err
		}
		if r == 0 || m.Seconds < best.Seconds {
			best = m
		}
	}
	return best, nil
}

func runOnce(v Variant, a Algo, d *Dataset, cfg Config) (Measurement, error) {
	m := Measurement{System: v.Name, Dataset: d.Name, Algo: a}
	if v == VariantDGalois && a == AlgoSampling {
		return m, nil
	}
	g := d.graphFor(a)
	var c *core.Cluster // nil for the sequential reference
	var e *gluon.Engine // non-nil for D-Galois, whose cluster c is
	var err error
	switch v {
	case VariantSequential:
	case VariantDGalois:
		if e, err = gluon.New(g, options(v, cfg)); err == nil {
			c = e.Cluster
		}
	default:
		c, err = core.NewCluster(g, options(v, cfg))
	}
	if err != nil {
		return m, err
	}
	if c != nil {
		defer c.Close()
	}
	m.Supported = true

	// call makes one algorithm call on the cell's system — the engine's,
	// the baseline's or the reference's version of it — and adds the run
	// to the cell: the cluster's own Stats, or the reference's wall time.
	call := func(engine, baseline func() error, reference func()) error {
		if c == nil {
			start := time.Now()
			reference()
			m.Seconds += time.Since(start).Seconds()
			return nil
		}
		run := engine
		if e != nil {
			run = baseline
		}
		if err := run(); err != nil {
			return err
		}
		m.accumulate(c)
		return nil
	}
	centers := int(math.Sqrt(float64(g.NumVertices())))
	switch a {
	case AlgoBFS:
		for _, root := range bfsRoots(g, cfg.Seed, cfg.BFSRoots) {
			err = call(func() error { return errOf(algorithms.BFS(c, root)) },
				func() error { return errOf(gluon.BFS(e, root)) },
				func() { seq.DirectionOptimizingBFS(g, root) })
			if err != nil {
				break
			}
		}
	case AlgoMIS:
		err = call(func() error { return errOf(algorithms.MIS(c, cfg.Seed)) },
			func() error { return errOf(gluon.MIS(e, cfg.Seed)) },
			func() { seq.GreedyMIS(g, seq.MISColors(g.NumVertices(), cfg.Seed)) })
	case AlgoKCore:
		err = call(func() error { return errOf(algorithms.KCore(c, cfg.KCoreK)) },
			func() error { return errOf(gluon.KCore(e, cfg.KCoreK)) },
			func() { seq.KCoreFromCoreness(seq.Coreness(g), cfg.KCoreK) })
	case AlgoKMeans:
		err = call(func() error { return errOf(algorithms.KMeans(c, centers, cfg.KMeansIters, cfg.Seed)) },
			func() error { return errOf(gluon.KMeans(e, centers, cfg.KMeansIters, cfg.Seed)) },
			func() { seq.KMeans(g, centers, cfg.KMeansIters, cfg.Seed, nil) })
	case AlgoSampling:
		err = call(func() error { return errOf(algorithms.Sample(c, cfg.Seed, cfg.SampleRounds)) }, nil,
			func() {
				for round := 0; round < cfg.SampleRounds; round++ {
					seq.SampleNeighbors(g, cfg.Seed, round, nil)
				}
			})
	default:
		err = fmt.Errorf("bench: unknown algorithm %q", a)
	}
	return m, err
}

// errOf drops a result, keeping its error.
func errOf[T any](_ T, err error) error { return err }

// accumulate adds the cluster's most recent run to the cell: its time is
// the run's Elapsed, its work and traffic the run's totals.
func (m *Measurement) accumulate(c *core.Cluster) {
	s := c.Stats().Totals
	m.Seconds += s.Elapsed.Seconds()
	m.EdgesTraversed += s.EdgesTraversed
	m.UpdateBytes += s.UpdateBytes
	m.DependencyBytes += s.DependencyBytes
	m.dependencyFrames += s.DependencyMessages
	m.ControlBytes += s.ControlBytes
	m.DependencyWaitSeconds += s.DependencyWait.Seconds()
	m.UpdateWaitSeconds += s.UpdateWait.Seconds()
}

// Matrix is one session's measured cells. Cell measures a cell the first
// time it is asked for and returns the stored Measurement after, so a
// cell several tables read is one measurement: Table 4's SympleGraph
// column is Figure 11's, and Table 7, Figure 10 and COST sweep the same
// MIS cells. The zero Matrix is empty and ready to use; it is not safe
// for concurrent use.
type Matrix struct {
	cells map[cellKey]Measurement
}

// cellKey names a cell by its defaulted config with the link model taken
// by value: Defaults allocates a fresh DefaultLink on every call.
type cellKey struct {
	v    Variant
	a    Algo
	d    *Dataset
	cfg  Config
	link comm.LinkModel
}

// Cell returns variant v's measurement of algorithm a on dataset d under
// cfg, running it on first request.
func (m *Matrix) Cell(v Variant, a Algo, d *Dataset, cfg Config) (Measurement, error) {
	cfg = cfg.Defaults()
	key := cellKey{v: v, a: a, d: d, cfg: cfg, link: *cfg.Link}
	key.cfg.Link = nil
	if cell, ok := m.cells[key]; ok {
		return cell, nil
	}
	cell, err := Run(v, a, d, cfg)
	if err != nil {
		return cell, fmt.Errorf("bench: %s/%s/%s: %w", v.Name, a, d.Name, err)
	}
	if m.cells == nil {
		m.cells = map[cellKey]Measurement{}
	}
	m.cells[key] = cell
	return cell, nil
}

// comparison lists the systems of Tables 4, 5 and 6.
var comparison = []Variant{VariantGemini, VariantDGalois, VariantSympleGraph}

// Main returns the cells of Tables 4, 5 and 6 — every system of the
// comparison on every algorithm and main dataset — measuring those not
// yet measured.
func (m *Matrix) Main(s *Suite, cfg Config) ([]Measurement, error) {
	var cells []Measurement
	for _, d := range s.Main {
		for _, a := range Algos {
			for _, v := range comparison {
				cell, err := m.Cell(v, a, d, cfg)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}
