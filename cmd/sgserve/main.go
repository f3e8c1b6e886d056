// Command sgserve is the graph query service daemon: it loads and
// partitions the configured graphs once at startup, keeps a pool of
// warm clusters, and serves algorithm queries over HTTP until drained
// by SIGTERM/SIGINT.
//
// Usage:
//
//	sgserve -graph web=web.sg -graph synth=rmat:14,16,1 -addr :8090
//	sgserve -graph g=rmat:12,16,1 -addr :0 -max-inflight 4 -debug-addr :6060
//	sgserve -graph g=rmat:12,16,1 -checkpoint-dir /var/lib/sgserve \
//	        -checkpoint-every 8 -max-restarts 2 -stall-timeout 5s
//	sgserve -graph g=rmat:12,16,1 -workers 127.0.0.1:7101,127.0.0.1:7102
//
// With -workers, queries run on a distributed ring of sgworker
// processes (this daemon is node 0) instead of an in-process simulated
// cluster; provider=local on a query selects the in-process engine.
//
// Query with:
//
//	curl 'http://localhost:8090/query?graph=web&algo=bfs'
//	curl 'http://localhost:8090/query?graph=web&algo=bfs&provider=local'
//	curl 'http://localhost:8090/statusz'
//
// With -debug-addr, /debug/metrics carries the same /statusz document
// under its "server" key.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

// graphFlags collects repeatable -graph name=<path|rmat:scale,ef,seed>
// specs.
type graphFlags struct {
	specs []string
}

func (g *graphFlags) String() string { return strings.Join(g.specs, ",") }

func (g *graphFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=<path|rmat:scale,ef,seed>, got %q", v)
	}
	g.specs = append(g.specs, v)
	return nil
}

// load resolves every spec into a named graph.
func (g *graphFlags) load() (map[string]*graph.Graph, error) {
	if len(g.specs) == 0 {
		g.specs = []string{"default=rmat:12,16,1"}
	}
	out := make(map[string]*graph.Graph, len(g.specs))
	for _, spec := range g.specs {
		name, src, _ := strings.Cut(spec, "=")
		if name == "" || src == "" {
			return nil, fmt.Errorf("bad -graph %q: want name=<path|rmat:scale,ef,seed>", spec)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("duplicate -graph name %q", name)
		}
		var gs cliutil.GraphSpec
		if rest, ok := strings.CutPrefix(src, "rmat:"); ok {
			gs.RMAT = rest
		} else {
			gs.Path = src
		}
		gr, err := gs.Load()
		if err != nil {
			return nil, fmt.Errorf("loading -graph %s: %w", spec, err)
		}
		out[name] = gr
	}
	return out, nil
}

func main() {
	var graphs graphFlags
	var obsFlags cliutil.Obs
	var resilience cliutil.Resilience
	var fleet cliutil.Fleet
	flag.Var(&graphs, "graph", "serve this graph as name=<path|rmat:scale,ef,seed> (repeatable)")
	obsFlags.Register(flag.CommandLine)
	resilience.Register(flag.CommandLine)
	fleet.Register(flag.CommandLine)
	var (
		addr          = flag.String("addr", ":8090", "HTTP listen address (:0 picks a free port)")
		nodes         = flag.Int("nodes", 4, "simulated cluster size per query engine (local provider)")
		engineWorkers = flag.Int("engine-workers", 1, "worker goroutines per node")
		workerRoster  = flag.String("workers", "", "comma-separated sgworker control addresses (host:port,...); enables the remote provider and makes it the default")
		advertiseHost = flag.String("advertise-host", "", "host workers dial back for the data plane (default 127.0.0.1)")
		threshold     = flag.Int("threshold", core.DefaultDepThreshold, "differentiated-propagation degree threshold")
		buffers       = flag.Int("buffers", 2, "double-buffering group count (1 = off)")
		maxInflight   = flag.Int("max-inflight", 2, "queries executing concurrently")
		maxQueue      = flag.Int("max-queue", 0, "queries waiting for a slot before shedding with 429 (0 = 4×max-inflight)")
		cacheEntries  = flag.Int("cache-entries", 256, "result cache capacity in entries (-1 disables)")
		cacheBytes    = flag.Int64("cache-bytes", 64<<20, "result cache capacity in marshaled bytes")
		retention     = flag.Int("retention", 0, "graph epochs kept resolvable for ?epoch= pinned queries (0 = default)")
		drainWait     = flag.Duration("drain-timeout", 30*time.Second, "how long a shutdown signal waits for in-flight queries")
		checkpointDir = flag.String("checkpoint-dir", "", "persist each pool slot's superstep checkpoints under this directory, so a restarted daemon resumes the same query (default in-memory)")
	)
	flag.Parse()

	loaded, err := graphs.load()
	if err != nil {
		fatalf("%v", err)
	}
	// A bad -debug-addr must kill the daemon here, not leave it running
	// without its observability surface.
	if err := obsFlags.Start("sgserve"); err != nil {
		fatalf("%v", err)
	}
	opts := core.Options{
		NumNodes:     *nodes,
		Workers:      *engineWorkers,
		DepThreshold: *threshold,
		NumBuffers:   *buffers,
	}
	resilience.Apply(&opts)

	roster, err := cliutil.ParseHostPorts(*workerRoster)
	if err != nil {
		fatalf("-workers: %v", err)
	}

	srv, err := server.New(server.Config{
		Graphs:          loaded,
		Engine:          opts,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		Retention:       *retention,
		CheckpointRoot:  *checkpointDir,
		Workers:         roster,
		AdvertiseHost:   *advertiseHost,
		ProbeInterval:   fleet.ProbeInterval,
		ProbeTimeout:    fleet.ProbeTimeout,
		ProbeDeadAfter:  fleet.DeadAfter,
		ProbeBackoffCap: fleet.BackoffCap,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Tracer: obsFlags.Tracer,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if obsFlags.Registry != nil {
		obsFlags.Registry.Register("server", func() any { return srv.StatusSnapshot() })
	}
	if len(roster) > 0 {
		fmt.Fprintf(os.Stderr, "sgserve: remote provider enabled over %d worker(s): %s\n", len(roster), strings.Join(roster, ","))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listening on %s: %v", *addr, err)
	}
	// The resolved address line is the startup handshake: scripts (and
	// the serve-smoke test) parse it to find a :0-assigned port.
	fmt.Printf("sgserve: serving %d graph(s) on http://%s\n", len(loaded), ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "sgserve: %v received, draining (timeout %v)\n", s, *drainWait)
	case err := <-serveErr:
		fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "sgserve: %v\n", err)
		httpSrv.Close()
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "sgserve: shutdown: %v\n", err)
	}
	if err := obsFlags.Close(); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(os.Stderr, "sgserve: drained cleanly")
}

func fatalf(format string, args ...any) {
	cliutil.Fatalf("sgserve", format, args...)
}
