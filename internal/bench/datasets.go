// Package bench is the experiment harness: it defines the laptop-scale
// workloads standing in for the paper's datasets (Table 1), runs each
// (system, algorithm, dataset) cell, and formats the rows of every table
// and figure in the paper's evaluation (§7). cmd/sgbench and the
// top-level benchmarks are thin wrappers over this package; EXPERIMENTS.md
// records the measured shapes against the paper's.
package bench

import (
	"sync"

	"repro/internal/graph"
)

// Dataset is a named workload graph. Build is lazy and cached: datasets
// are constructed deterministically from seeds, standing in for the
// paper's downloads (Twitter-2010, Friendster, Clueweb-12, Gsh-2015) and
// its R-MAT syntheses (s27/s28/s29).
type Dataset struct {
	// Name is the paper's dataset abbreviation ("tw", "s27", …).
	Name string
	// Description explains what the stand-in models.
	Description string

	build   func() *graph.Graph
	once    sync.Once
	g       *graph.Graph
	symOnce sync.Once
	sym     *graph.Graph
}

// Graph builds (once) and returns the dataset graph.
func (d *Dataset) Graph() *graph.Graph {
	d.once.Do(func() { d.g = d.build() })
	return d.g
}

// graphFor returns the graph the algorithm runs on: the dataset graph,
// or for the undirected algorithms its symmetrization, built once too.
func (d *Dataset) graphFor(a Algo) *graph.Graph {
	if !a.Undirected() {
		return d.Graph()
	}
	d.symOnce.Do(func() { d.sym = graph.Symmetrize(d.Graph()) })
	return d.sym
}

// Suite is the set of datasets an experiment run uses. Scale is the base
// R-MAT scale (the paper's 27, here laptop-sized); the three synthesized
// graphs keep the paper's design of equal edge counts at edge factors
// 32/16/8, and the two real-graph stand-ins keep R-MAT skew at
// Twitter/Friendster-like edge factors.
type Suite struct {
	Scale int
	// Main lists the five Table 4/5/6 datasets: tw, fr, s27, s28, s29
	// stand-ins.
	Main []*Dataset
	// Large lists the Table 3 stand-ins: gsh (skewed web) and cl
	// (low-skew per-BFS-behaviour web, where bottom-up is rarely
	// chosen).
	Large []*Dataset
}

// NewSuite builds the dataset suite at the given base scale (≥ 8).
// Scale 14 gives benchmark-sized graphs (~500K-1M edges each); tests use
// smaller scales.
func NewSuite(scale int) *Suite {
	p := graph.Graph500Params()
	mk := func(name, desc string, build func() *graph.Graph) *Dataset {
		return &Dataset{Name: name, Description: desc, build: build}
	}
	return &Suite{
		Scale: scale,
		Main: []*Dataset{
			mk("tw", "Twitter-2010 stand-in: R-MAT, edge factor 24",
				func() *graph.Graph { return graph.RMAT(scale, 24, p, 1001) }),
			mk("fr", "Friendster stand-in: R-MAT, edge factor 28",
				func() *graph.Graph { return graph.RMAT(scale, 28, p, 1002) }),
			mk("s27", "R-MAT scale=base, edge factor 32",
				func() *graph.Graph { return graph.RMAT(scale, 32, p, 1003) }),
			mk("s28", "R-MAT scale=base+1, edge factor 16",
				func() *graph.Graph { return graph.RMAT(scale+1, 16, p, 1004) }),
			mk("s29", "R-MAT scale=base+2, edge factor 8",
				func() *graph.Graph { return graph.RMAT(scale+2, 8, p, 1005) }),
		},
		Large: []*Dataset{
			mk("gsh", "Gsh-2015 stand-in: skewed R-MAT, edge factor 32",
				func() *graph.Graph { return graph.RMAT(scale+1, 32, p, 1006) }),
			mk("cl", "Clueweb-12 stand-in: low-skew uniform graph",
				func() *graph.Graph {
					n := 1 << uint(scale+1)
					return graph.Uniform(n, int64(n)*16, 1007)
				}),
		},
	}
}

// All returns Main followed by Large.
func (s *Suite) All() []*Dataset { return append(append([]*Dataset{}, s.Main...), s.Large...) }

// ByName finds a dataset or returns nil.
func (s *Suite) ByName(name string) *Dataset {
	for _, d := range s.All() {
		if d.Name == name {
			return d
		}
	}
	return nil
}
