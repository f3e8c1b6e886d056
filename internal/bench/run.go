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

// Variant is an engine configuration under measurement — a system of the
// paper's comparison or an ablation point of Figure 11.
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
	// Repeats re-runs each cell and keeps the fastest time (work and
	// traffic are deterministic across repeats). Defaults to 1.
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

// workGraph returns the dataset's graph in the orientation the algorithm
// needs, cached.
func workGraph(d *Dataset, a Algo) *graph.Graph {
	if a.Undirected() {
		return symmetrized(d)
	}
	return d.Graph()
}

var symCache = struct {
	m map[*Dataset]*graph.Graph
}{m: map[*Dataset]*graph.Graph{}}

var symCacheMu chan struct{} = make(chan struct{}, 1)

func symmetrized(d *Dataset) *graph.Graph {
	symCacheMu <- struct{}{}
	defer func() { <-symCacheMu }()
	if g, ok := symCache.m[d]; ok {
		return g
	}
	g := graph.Symmetrize(d.Graph())
	symCache.m[d] = g
	return g
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

// RunVariant runs one cell on the core engine, repeating cfg.Repeats
// times and keeping the fastest wall time (the workload is deterministic,
// so work and traffic metrics are identical across repeats).
func RunVariant(v Variant, a Algo, d *Dataset, cfg Config) (Measurement, error) {
	cfg = cfg.Defaults()
	best := Measurement{}
	for r := 0; r < cfg.Repeats; r++ {
		m, err := runVariantOnce(v, a, d, cfg)
		if err != nil {
			return m, err
		}
		if r == 0 || m.Seconds < best.Seconds {
			best = m
		}
	}
	return best, nil
}

func runVariantOnce(v Variant, a Algo, d *Dataset, cfg Config) (Measurement, error) {
	g := workGraph(d, a)
	c, err := core.NewCluster(g, core.Options{
		NumNodes:        cfg.Nodes,
		Mode:            v.Mode,
		DepThreshold:    v.DepThreshold,
		NumBuffers:      v.NumBuffers,
		Workers:         cfg.Workers,
		Link:            cfg.Link,
		Tracer:          cfg.Tracer,
		StallTimeout:    cfg.StallTimeout,
		CheckpointEvery: cfg.CheckpointEvery,
		MaxRestarts:     cfg.MaxRestarts,
		Fault:           cfg.Fault,
	})
	if err != nil {
		return Measurement{}, err
	}
	defer c.Close()

	m := Measurement{System: v.Name, Dataset: d.Name, Algo: a, Supported: true}
	switch a {
	case AlgoBFS:
		for _, root := range bfsRoots(g, cfg.Seed, cfg.BFSRoots) {
			if _, err := algorithms.BFS(c, root); err != nil {
				return m, err
			}
			m.accumulate(c)
		}
	case AlgoMIS:
		if _, err := algorithms.MIS(c, cfg.Seed); err != nil {
			return m, err
		}
		m.accumulate(c)
	case AlgoKCore:
		if _, err := algorithms.KCore(c, cfg.KCoreK); err != nil {
			return m, err
		}
		m.accumulate(c)
	case AlgoKMeans:
		centers := int(math.Sqrt(float64(g.NumVertices())))
		if _, err := algorithms.KMeans(c, centers, cfg.KMeansIters, cfg.Seed); err != nil {
			return m, err
		}
		m.accumulate(c)
	case AlgoSampling:
		if _, err := algorithms.Sample(c, cfg.Seed, cfg.SampleRounds); err != nil {
			return m, err
		}
		m.accumulate(c)
	default:
		return m, fmt.Errorf("bench: unknown algorithm %q", a)
	}
	return m, nil
}

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

// RunDGalois runs one cell on the gluon baseline, repeating like
// RunVariant. Sampling is unsupported (as in D-Galois) and returns
// Supported=false.
func RunDGalois(a Algo, d *Dataset, cfg Config) (Measurement, error) {
	cfg = cfg.Defaults()
	best := Measurement{}
	for r := 0; r < cfg.Repeats; r++ {
		m, err := runDGaloisOnce(a, d, cfg)
		if err != nil {
			return m, err
		}
		if r == 0 || (m.Supported && m.Seconds < best.Seconds) {
			best = m
		}
	}
	return best, nil
}

func runDGaloisOnce(a Algo, d *Dataset, cfg Config) (Measurement, error) {
	m := Measurement{System: "D-Galois", Dataset: d.Name, Algo: a}
	if a == AlgoSampling {
		return m, nil
	}
	g := workGraph(d, a)
	e, err := gluon.New(g, core.Options{
		NumNodes:     cfg.Nodes,
		Link:         cfg.Link,
		Tracer:       cfg.Tracer,
		StallTimeout: cfg.StallTimeout,
	})
	if err != nil {
		return m, err
	}
	defer e.Close()
	m.Supported = true
	switch a {
	case AlgoBFS:
		for _, root := range bfsRoots(g, cfg.Seed, cfg.BFSRoots) {
			if _, err := gluon.BFS(e, root); err != nil {
				return m, err
			}
			m.accumulate(e.Cluster)
		}
	case AlgoMIS:
		if _, err := gluon.MIS(e, cfg.Seed); err != nil {
			return m, err
		}
		m.accumulate(e.Cluster)
	case AlgoKCore:
		if _, err := gluon.KCore(e, cfg.KCoreK); err != nil {
			return m, err
		}
		m.accumulate(e.Cluster)
	case AlgoKMeans:
		centers := int(math.Sqrt(float64(g.NumVertices())))
		if _, err := gluon.KMeans(e, centers, cfg.KMeansIters, cfg.Seed); err != nil {
			return m, err
		}
		m.accumulate(e.Cluster)
	default:
		return m, fmt.Errorf("bench: unknown algorithm %q", a)
	}
	return m, nil
}

// RunSequential runs the single-thread reference (the COST baseline:
// GAPBS-style BFS, greedy MIS, the linear-time Matula–Beck K-core).
func RunSequential(a Algo, d *Dataset, cfg Config) (Measurement, error) {
	cfg = cfg.Defaults()
	g := workGraph(d, a)
	m := Measurement{System: "sequential", Dataset: d.Name, Algo: a, Supported: true}
	start := time.Now()
	switch a {
	case AlgoBFS:
		for _, root := range bfsRoots(g, cfg.Seed, cfg.BFSRoots) {
			seq.DirectionOptimizingBFS(g, root)
		}
	case AlgoMIS:
		seq.GreedyMIS(g, seq.MISColors(g.NumVertices(), cfg.Seed))
	case AlgoKCore:
		seq.KCoreFromCoreness(seq.Coreness(g), cfg.KCoreK)
	case AlgoKMeans:
		centers := int(math.Sqrt(float64(g.NumVertices())))
		seq.KMeans(g, centers, cfg.KMeansIters, cfg.Seed, nil)
	case AlgoSampling:
		for round := 0; round < cfg.SampleRounds; round++ {
			seq.SampleNeighbors(g, cfg.Seed, round, nil)
		}
	default:
		return m, fmt.Errorf("bench: unknown algorithm %q", a)
	}
	m.Seconds = time.Since(start).Seconds()
	return m, nil
}

// Matrix holds every measured cell of a multi-system sweep, keyed by
// (system, algo, dataset).
type Matrix struct {
	Cells map[string]Measurement
}

func cellKey(system string, a Algo, dataset string) string {
	return system + "/" + string(a) + "/" + dataset
}

// Get returns a cell.
func (m *Matrix) Get(system string, a Algo, dataset string) (Measurement, bool) {
	c, ok := m.Cells[cellKey(system, a, dataset)]
	return c, ok
}

// RunMatrix measures every (system, algo, dataset) combination over the
// suite's main datasets: Gemini, D-Galois, SympleGraph — the shared input
// of Tables 4, 5 and 6.
func RunMatrix(s *Suite, cfg Config) (*Matrix, error) {
	m := &Matrix{Cells: map[string]Measurement{}}
	for _, d := range s.Main {
		for _, a := range Algos {
			for _, v := range []Variant{VariantGemini, VariantSympleGraph} {
				cell, err := RunVariant(v, a, d, cfg)
				if err != nil {
					return nil, fmt.Errorf("bench: %s/%s/%s: %w", v.Name, a, d.Name, err)
				}
				m.Cells[cellKey(v.Name, a, d.Name)] = cell
			}
			cell, err := RunDGalois(a, d, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: D-Galois/%s/%s: %w", a, d.Name, err)
			}
			m.Cells[cellKey("D-Galois", a, d.Name)] = cell
		}
	}
	return m, nil
}
