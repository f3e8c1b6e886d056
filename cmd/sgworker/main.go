// Command sgworker is one machine of a distributed serving cluster: a
// daemon that registers a control listener, accepts engine slots from
// an sgserve front-end — receiving the graph (cached by fingerprint
// across slots) and engine options over the control protocol — and then
// executes the same algorithm dispatch as the front-end, superstep for
// superstep, over the engine's TCP data plane.
//
// Usage:
//
//	sgworker -addr 127.0.0.1:7101
//	sgworker -addr :7101 -data-host 10.0.0.7 -debug-addr :6071
//
// The debug server (via -debug-addr) exposes /healthz for liveness
// probes and worker.* counters under /debug/metrics. The daemon runs
// until SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cliutil"
	"repro/internal/server"
)

func main() {
	var obsFlags cliutil.Obs
	obsFlags.Register(flag.CommandLine)
	var (
		addr     = flag.String("addr", "127.0.0.1:7101", "control listen address (:0 picks a free port)")
		dataHost = flag.String("data-host", "127.0.0.1", "host data-plane listeners bind and advertise to peers")
		slots    = flag.Int("slots", 0, "max concurrently active engine slots; further builds are rejected so the front-end schedules elsewhere (0 = unlimited)")
		verbose  = flag.Bool("v", false, "log slot lifecycle events")
	)
	flag.Parse()

	if err := obsFlags.Start("sgworker"); err != nil {
		fatalf("%v", err)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	d, err := server.StartWorkerDaemon(server.WorkerConfig{
		Addr:     *addr,
		DataHost: *dataHost,
		MaxSlots: *slots,
		Logf:     logf,
		Registry: obsFlags.Registry,
	})
	if err != nil {
		fatalf("%v", err)
	}
	// The resolved address line is the startup handshake: scripts (and
	// the serve-dist-smoke test) parse it to find a :0-assigned port.
	fmt.Printf("sgworker: control on %s\n", d.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "sgworker: %v received, shutting down\n", s)
	if err := d.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sgworker: close: %v\n", err)
	}
	if err := obsFlags.Close(); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	cliutil.Fatalf("sgworker", format, args...)
}
