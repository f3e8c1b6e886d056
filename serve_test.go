package repro

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startDaemon launches bin with args, waits for a stdout startup line,
// and returns that line, a stderr drain channel, and a wait function.
// wait reaps the process only after the stderr reader hit EOF —
// calling cmd.Wait directly would race the reader for the pipe (Wait
// closes it, discarding unread output). The process is killed via
// t.Cleanup; callers that shut it down deliberately should wait()
// themselves first.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string, chan string, func() error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	errText := make(chan string, 1)
	readDone := make(chan struct{})
	go func() {
		b, _ := io.ReadAll(stderr)
		errText <- string(b)
		close(readDone)
	}()
	wait := func() error {
		<-readDone
		return cmd.Wait()
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("%s: no startup line: %v (stderr: %s)", bin, err, <-errText)
	}
	return cmd, strings.TrimSpace(line), errText, wait
}

// TestServeDistSmoke is the distributed-serving acceptance path (`make
// serve-dist-smoke`): two real sgworker processes plus an sgserve
// front-end pointed at them with -workers, then one query per engine
// mode verified bit-identical between the remote (3-process TCP ring)
// and local (in-process simulated cluster) providers.
func TestServeDistSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "sgserve", "sgworker")

	// Two worker daemons on ephemeral control ports. Handles are kept so
	// the restart phase below can kill and relaunch one.
	var roster []string
	var workerCmds []*exec.Cmd
	for i := 0; i < 2; i++ {
		wcmd, line, errText, _ := startDaemon(t, tools["sgworker"], "-addr", "127.0.0.1:0")
		const prefix = "sgworker: control on "
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("sgworker startup line %q (stderr: %s)", line, <-errText)
		}
		roster = append(roster, strings.TrimPrefix(line, prefix))
		workerCmds = append(workerCmds, wcmd)
	}

	// The front-end is node 0 of a 3-process ring. Probe knobs are
	// tightened so the restart phase sees state transitions in hundreds
	// of milliseconds rather than seconds.
	cmd, line, errText, wait := startDaemon(t, tools["sgserve"],
		"-graph", "g=rmat:10,8,1", "-addr", "127.0.0.1:0",
		"-workers", strings.Join(roster, ","),
		"-probe-interval", "100ms", "-probe-timeout", "500ms",
		"-probe-dead-after", "2", "-probe-backoff-cap", "300ms")
	idx := strings.Index(line, "http://")
	if idx < 0 {
		t.Fatalf("sgserve startup line %q has no URL (stderr: %s)", line, <-errText)
	}
	base := line[idx:]

	query := func(params string) (int, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Get(base + "/query?" + params)
		if err != nil {
			t.Fatalf("GET %s: %v", params, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: %d %s", params, resp.StatusCode, b)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("query %s: %v in %s", params, err, b)
		}
		return resp.StatusCode, m
	}

	// One query per engine mode, each algorithm checked remote-vs-local.
	// no_cache keeps every request an actual engine run (the cache would
	// otherwise serve the second provider the first provider's result and
	// prove nothing).
	for _, mode := range []string{"symplegraph", "gemini"} {
		for _, algo := range []string{"bfs", "sssp", "kcore"} {
			q := "graph=g&algo=" + algo + "&mode=" + mode + "&no_cache=1"
			_, remote := query(q + "&provider=remote")
			_, local := query(q + "&provider=local")
			if string(remote["provider"]) != `"remote"` {
				t.Fatalf("%s %s: provider field %s, want remote", mode, algo, remote["provider"])
			}
			if string(local["provider"]) != `"local"` {
				t.Fatalf("%s %s: provider field %s, want local", mode, algo, local["provider"])
			}
			if string(remote["result"]) != string(local["result"]) {
				t.Fatalf("%s %s: remote result %s != local %s", mode, algo, remote["result"], local["result"])
			}
		}
	}

	// With -workers the remote provider is the default.
	_, def := query("graph=g&algo=bfs&no_cache=1")
	if string(def["provider"]) != `"remote"` {
		t.Fatalf("default provider %s, want remote", def["provider"])
	}

	// Restart phase: kill one sgworker process and watch the fleet
	// section of /statusz track it through dead and, after a relaunch on
	// the same port, back to healthy — all without restarting sgserve.
	victim := roster[1]
	workerState := func() (string, int) {
		t.Helper()
		resp, err := http.Get(base + "/statusz")
		if err != nil {
			t.Fatalf("GET /statusz: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		var st struct {
			Fleet map[string]struct {
				Healthy int `json:"healthy"`
				Workers []struct {
					Addr  string `json:"addr"`
					State string `json:"state"`
				} `json:"workers"`
			} `json:"fleet"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("statusz: %v in %s", err, b)
		}
		fs, ok := st.Fleet["remote"]
		if !ok {
			t.Fatalf("statusz has no remote fleet section: %s", b)
		}
		for _, w := range fs.Workers {
			if w.Addr == victim {
				return w.State, fs.Healthy
			}
		}
		t.Fatalf("victim %s missing from fleet: %s", victim, b)
		return "", 0
	}
	waitState := func(want string, healthy int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			state, h := workerState()
			if state == want && h == healthy {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("victim never reached %s/healthy=%d (at %s/%d)", want, healthy, state, h)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	workerCmds[1].Process.Kill()
	workerCmds[1].Wait()
	waitState("dead", 1)

	// Down a worker, queries still answer — flagged degraded, same bits.
	q := "graph=g&algo=bfs&mode=symplegraph&no_cache=1"
	_, local := query(q + "&provider=local")
	_, deg := query(q + "&provider=remote")
	if string(deg["degraded"]) != "true" {
		t.Fatalf("survivor-roster response not degraded: %v", deg)
	}
	if string(deg["result"]) != string(local["result"]) {
		t.Fatalf("degraded result %s != local %s", deg["result"], local["result"])
	}

	// Relaunch on the same control port; the roster re-admits it.
	_, wline, werr, _ := startDaemon(t, tools["sgworker"], "-addr", victim)
	if !strings.Contains(wline, victim) {
		t.Fatalf("restarted sgworker line %q (stderr: %s)", wline, <-werr)
	}
	waitState("healthy", 2)

	// Full width again: queries succeed and eventually drop the degraded
	// flag, still bit-identical with the local provider.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, after := query(q + "&provider=remote")
		if string(after["result"]) != string(local["result"]) {
			t.Fatalf("post-rejoin result %s != local %s", after["result"], local["result"])
		}
		if string(after["degraded"]) != "true" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never regained full width after worker rejoin")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// SIGTERM drains the front-end cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sgserve exit after SIGTERM: %v (stderr: %s)", err, <-errText)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sgserve did not exit after SIGTERM")
	}
}

// TestServeSmoke is the sgserve process-level acceptance path (`make
// serve-smoke`): start the daemon on a random port, verify an uncached
// query computes, the identical query hits the cache, an over-capacity
// burst is shed with 429 + Retry-After, and SIGTERM drains cleanly.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "sgserve")

	// Reserve a loopback port for the debug endpoint.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := ln.Addr().String()
	ln.Close()

	// The startup line carries the resolved :0 port.
	cmd, line, errText, wait := startDaemon(t, tools["sgserve"],
		"-graph", "g=rmat:10,8,1", "-addr", "127.0.0.1:0",
		"-max-inflight", "1", "-max-queue", "0", "-debug-addr", debugAddr)
	idx := strings.Index(line, "http://")
	if idx < 0 {
		t.Fatalf("startup line %q has no URL", line)
	}
	base := line[idx:]

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	// 1. Uncached query computes.
	resp, body := get("/query?graph=g&algo=bfs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uncached query: %d %s", resp.StatusCode, body)
	}
	var first struct {
		Cached bool `json:"cached"`
		Result struct {
			Reached int `json:"reached"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &first); err != nil || first.Cached || first.Result.Reached == 0 {
		t.Fatalf("uncached response (err=%v): %s", err, body)
	}

	// 2. The identical query is served from cache.
	resp, body = get("/query?graph=g&algo=bfs")
	var second struct {
		Cached bool `json:"cached"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &second) != nil || !second.Cached {
		t.Fatalf("cached query: %d %s", resp.StatusCode, body)
	}

	// 3. Over capacity: with one execution slot and no queue, a burst of
	// slow uncached queries must shed at least one request with 429 and
	// a Retry-After hint. Cache hits stay unaffected.
	type shot struct {
		code       int
		retryAfter string
	}
	shots := make(chan shot, 8)
	for i := 0; i < cap(shots); i++ {
		go func() {
			resp, err := http.Get(base + "/query?graph=g&algo=pagerank&iters=40&no_cache=1")
			if err != nil {
				shots <- shot{code: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			shots <- shot{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	var shed, served int
	for i := 0; i < cap(shots); i++ {
		s := <-shots
		switch s.code {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			shed++
			if s.retryAfter == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("burst request got %d", s.code)
		}
	}
	if served == 0 || shed == 0 {
		t.Fatalf("burst: served=%d shed=%d, want both > 0", served, shed)
	}

	// 4. statusz shows the traffic and the cache hit.
	resp, body = get("/statusz")
	var st struct {
		Cache struct {
			Hits    int64   `json:"hits"`
			HitRate float64 `json:"hit_rate"`
		} `json:"cache"`
		Requests struct {
			Rejected int64 `json:"rejected"`
		} `json:"requests"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &st) != nil {
		t.Fatalf("statusz: %d %s", resp.StatusCode, body)
	}
	if st.Cache.Hits == 0 || st.Cache.HitRate <= 0 || st.Requests.Rejected == 0 {
		t.Fatalf("statusz counters: %s", body)
	}

	// 5. /debug/metrics samples the same document under "server": with
	// no traffic in between, its requests and cache equal /statusz's.
	var statusz map[string]any
	if err := json.Unmarshal(body, &statusz); err != nil {
		t.Fatal(err)
	}
	mresp, err := http.Get("http://" + debugAddr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	var metrics struct {
		Server map[string]any `json:"server"`
	}
	if mresp.StatusCode != http.StatusOK || json.Unmarshal(mbody, &metrics) != nil || metrics.Server == nil {
		t.Fatalf("debug metrics: %d %s", mresp.StatusCode, mbody)
	}
	for _, k := range []string{"requests", "cache"} {
		if !reflect.DeepEqual(metrics.Server[k], statusz[k]) {
			t.Fatalf("/debug/metrics server.%s = %v, /statusz %s = %v", k, metrics.Server[k], k, statusz[k])
		}
	}

	// 6. SIGTERM drains cleanly: process exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sgserve exit after SIGTERM: %v (stderr: %s)", err, <-errText)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sgserve did not exit after SIGTERM")
	}
	if se := <-errText; !strings.Contains(se, "drained cleanly") {
		t.Fatalf("stderr missing drain confirmation:\n%s", se)
	}
}
