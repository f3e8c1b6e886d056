// Command symplegraph runs the paper's algorithms on a simulated
// SympleGraph cluster and reports results with the paper's metrics:
// execution time, edges traversed, and communication volume broken down
// into update and dependency traffic.
//
// A run is one query of the graph service answered without the daemon:
// the flags form a server.Request, canonicalized with the service's
// defaults, and the service's own dispatch runs it on a cluster built
// over the graph variant the service would use (symmetrized for mis,
// kcore and kmeans; weighted for sssp).
//
// Usage:
//
//	symplegraph -algo bfs -rmat 14,16,1 -nodes 8 -mode symplegraph
//	symplegraph -algo kcore -k 8 -graph web.sg -mode gemini
//	symplegraph -algo sampling -rounds 8 -nodes 4
//	symplegraph -algo bfs -rmat 14,16,1 -trace out.json -v
//	symplegraph -algo pagerank -iters 20 -debug-addr :6060
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

func main() {
	var gspec cliutil.GraphSpec
	var obsFlags cliutil.Obs
	var resilience cliutil.Resilience
	gspec.Register(flag.CommandLine)
	obsFlags.Register(flag.CommandLine)
	resilience.Register(flag.CommandLine)
	var (
		algo      = flag.String("algo", "bfs", "algorithm: bfs, mis, kcore, kmeans, sampling, cc, sssp, pagerank")
		nodes     = flag.Int("nodes", 8, "simulated cluster size")
		mode      = flag.String("mode", "symplegraph", "engine mode: symplegraph or gemini")
		threshold = flag.Int("threshold", core.DefaultDepThreshold, "differentiated-propagation degree threshold (0 = track all)")
		buffers   = flag.Int("buffers", 2, "double-buffering group count (1 = off)")
		workers   = flag.Int("workers", 1, "worker goroutines per node")
		root      = flag.Int("root", -1, "BFS/SSSP root (-1 = highest-degree vertex)")
		k         = flag.Int("k", 0, "K for K-core (0 = the service default, 8)")
		centers   = flag.Int("centers", 0, "K-means centers (0 = sqrt(|V|))")
		iters     = flag.Int("iters", 0, "K-means outer iterations / PageRank iterations (0 = the service default, 3 / 20)")
		rounds    = flag.Int("rounds", 0, "sampling rounds (0 = the service default, 4)")
		seed      = flag.Uint64("seed", 0, "algorithm seed (0 = the service default, 42)")
		verbose   = flag.Bool("v", false, "verbose: per-node stats and phase histograms")
		tcpID     = flag.Int("tcp-id", -1, "multi-process mode: this process's node ID")
		tcpAddrs  = flag.String("tcp-addrs", "", "multi-process mode: comma-separated listen addresses, one per node")
	)
	flag.Parse()

	base, err := gspec.Load()
	if err != nil {
		fatalf("%v", err)
	}
	q, g, err := server.Prepare(server.Request{Algo: *algo, Mode: *mode, Root: *root, K: *k,
		Centers: *centers, Iters: *iters, Rounds: *rounds, Seed: *seed}, base)
	if err != nil {
		fatalf("%v", err)
	}
	m, _ := cliutil.ParseMode(q.Mode) // Prepare validated it
	if err := obsFlags.Start("symplegraph"); err != nil {
		fatalf("%v", err)
	}
	opts := core.Options{
		NumNodes:     *nodes,
		Mode:         m,
		DepThreshold: *threshold,
		NumBuffers:   *buffers,
		Workers:      *workers,
		Tracer:       obsFlags.Tracer,
	}
	resilience.Apply(&opts)
	cluster, release, err := newCluster(g, opts, *tcpID, *tcpAddrs)
	if err != nil {
		fatalf("%v", err)
	}
	defer release()
	if obsFlags.Registry != nil {
		cluster.RegisterMetrics(obsFlags.Registry)
	}

	fmt.Printf("graph: %v  nodes: %d  mode: %v\n", g, cluster.Options().NumNodes, m)
	res, _, err := server.RunAlgorithm(cluster, q)
	if err != nil {
		// The typed-error taxonomy picks the exit code and keeps the
		// structured context (blocked node, phase, awaited peer).
		cliutil.FatalErr("symplegraph", err)
	}
	printResult(q, res)
	cliutil.PrintStats(os.Stdout, cluster.Stats(), g.NumEdges(), *verbose)
	resilience.PrintCounters(os.Stdout, cluster.Stats())
	if err := obsFlags.Close(); err != nil {
		fatalf("%v", err)
	}
}

// newCluster builds the engine the query runs on: every machine in this
// process, or — with -tcp-id — the one machine this process hosts of a
// TCP ring whose other members run the same command with their own ID.
// release closes the cluster and, in TCP mode, the endpoint it does not
// own.
func newCluster(g *graph.Graph, opts core.Options, tcpID int, tcpAddrs string) (c *core.Cluster, release func(), err error) {
	if tcpID < 0 {
		c, err = core.NewCluster(g, opts)
		if err != nil {
			return nil, nil, err
		}
		return c, func() { c.Close() }, nil
	}
	addrs := strings.Split(tcpAddrs, ",")
	if len(addrs) < 2 || tcpID >= len(addrs) {
		return nil, nil, fmt.Errorf("-tcp-id %d needs -tcp-addrs with at least 2 entries", tcpID)
	}
	ln, err := net.Listen("tcp", addrs[tcpID])
	if err != nil {
		return nil, nil, fmt.Errorf("listening on %s: %w", addrs[tcpID], err)
	}
	ep, err := comm.NewTCPEndpoint(comm.NodeID(tcpID), ln, addrs)
	if err != nil {
		return nil, nil, fmt.Errorf("joining cluster: %w", err)
	}
	opts.NumNodes = len(addrs)
	opts.Endpoints = make([]comm.Endpoint, len(addrs))
	opts.Endpoints[tcpID] = ep
	if c, err = core.NewCluster(g, opts); err != nil {
		ep.Close()
		return nil, nil, err
	}
	return c, func() { c.Close(); ep.Close() }, nil
}

// printResult writes the query's answer line: the canonical parameters
// the run used and the service's Result for them.
func printResult(q server.Request, r server.Result) {
	switch q.Algo {
	case "bfs":
		fmt.Printf("bfs: root=%d reached=%d top-down=%d bottom-up=%d\n", q.Root, r.Reached, r.TopDownSteps, r.BottomUpSteps)
	case "sssp":
		fmt.Printf("sssp: root=%d reached=%d\n", q.Root, r.Reached)
	case "mis":
		fmt.Printf("mis: size=%d rounds=%d\n", r.Size, r.Rounds)
	case "kcore":
		fmt.Printf("kcore: k=%d size=%d rounds=%d\n", q.K, r.Size, r.Rounds)
	case "kmeans":
		fmt.Printf("kmeans: centers=%d iterations=%d distsums=%v\n", q.Centers, q.Iters, r.DistSums)
	case "sampling":
		fmt.Printf("sampling: rounds=%d exact-picks=%d\n", q.Rounds, r.ExactPicks)
	case "cc":
		fmt.Printf("cc: components=%d\n", r.Components)
	case "pagerank":
		fmt.Printf("pagerank: iterations=%d top vertex=%d rank=%.6f\n", q.Iters, r.TopVertex, r.TopRank)
	}
}

func fatalf(format string, args ...any) {
	cliutil.Fatalf("symplegraph", format, args...)
}
