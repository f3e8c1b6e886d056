package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestSustainedLoad is the serving acceptance test: 64 concurrent
// clients against a two-graph server for 5 seconds must sustain zero
// 5xx responses, a non-zero cache hit-rate, populated queue-wait and
// engine-time histograms, and a clean drain that answers every
// in-flight request. Each client is a closed loop over a seeded mix of
// six algorithms with three parameter values apiece, so queries repeat
// and reach the cache; beside them a mutator commits four
// batches, alternating graphs, spread over the run.
func TestSustainedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained load test skipped in -short mode")
	}
	graphs := map[string]*graph.Graph{
		"web":    testGraph(8, 1),
		"social": testGraph(8, 2),
	}
	names := []string{"web", "social"}
	s := testServer(t, Config{
		Graphs:      graphs,
		Engine:      core.Options{NumNodes: 2, Mode: core.ModeSympleGraph},
		MaxInflight: 4,
		MaxQueue:    64,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		clients  = 64
		duration = 5 * time.Second
		spread   = 3
		batches  = 4
		batchOps = 32
		seed     = 2026
	)
	algos := []string{"bfs", "sssp", "kcore", "mis", "cc", "pagerank"}
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(duration)

	// A non-2xx status is not a failure by itself (429 sheds are
	// expected under load); a transport error is: the server must answer
	// every request it accepted, never cut one off.
	var (
		mu                      sync.Mutex
		status                  = map[int]int{} // HTTP status → count
		requests, hits          int
		transportErrors         int
		mutations, mutationErrs int
		epochs                  = map[string]uint64{} // newest committed epoch per graph
		wg                      sync.WaitGroup
	)

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < batches && time.Now().Before(deadline); i++ {
			time.Sleep(duration / (batches + 1))
			g := names[i%len(names)]
			n := graphs[g].NumVertices()
			req := MutateRequest{Graph: g}
			for j := 0; j < batchOps; j++ {
				op := "add_edge"
				if rng.Intn(3) == 0 {
					op = "remove_edge"
				}
				req.Mutations = append(req.Mutations,
					MutationJSON{Op: op, Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))})
			}
			body, _ := json.Marshal(req)
			var mr MutateResponse
			resp, err := client.Post(ts.URL+"/mutate", "application/json", bytes.NewReader(body))
			if err == nil {
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				} else {
					err = json.NewDecoder(resp.Body).Decode(&mr)
				}
				resp.Body.Close()
			}
			mu.Lock()
			if err != nil {
				mutationErrs++
			} else {
				mutations++
				epochs[g] = max(epochs[g], mr.Epoch)
			}
			mu.Unlock()
		}
	}()

	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				algo := algos[rng.Intn(len(algos))]
				u := fmt.Sprintf("%s/query?graph=%s&algo=%s", ts.URL, names[rng.Intn(len(names))], algo)
				switch algo {
				case "kcore":
					u += fmt.Sprintf("&k=%d", 2+rng.Intn(spread))
				case "mis":
					u += fmt.Sprintf("&seed=%d", 1+rng.Intn(spread))
				case "pagerank":
					u += fmt.Sprintf("&iters=%d", 5+5*rng.Intn(spread))
				}
				var body []byte
				resp, err := client.Get(u)
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				var doc struct {
					Cached bool `json:"cached"`
				}
				cached := err == nil && resp.StatusCode == http.StatusOK &&
					json.Unmarshal(body, &doc) == nil && doc.Cached
				mu.Lock()
				if err != nil {
					transportErrors++
				} else {
					requests++
					status[resp.StatusCode]++
				}
				if cached {
					hits++
				}
				mu.Unlock()
			}
		}(rand.New(rand.NewSource(seed + int64(id) + 1)))
	}
	wg.Wait()

	t.Logf("load: %d requests, status=%v, hits=%d, transport errors=%d, mutations=%d (errors=%d), epochs=%v",
		requests, status, hits, transportErrors, mutations, mutationErrs, epochs)

	if requests == 0 || status[http.StatusOK] == 0 {
		t.Fatalf("no successful requests: status=%v", status)
	}
	if transportErrors > 0 {
		t.Fatalf("%d transport errors under load", transportErrors)
	}
	serverErrors := 0
	for code, n := range status {
		if code >= 500 {
			serverErrors += n
		}
	}
	if serverErrors > 0 {
		t.Fatalf("%d 5xx responses under load: %v", serverErrors, status)
	}

	// The mutate mix must actually commit, every batch without error,
	// and the version bump must be visible to clients.
	if mutations == 0 || mutationErrs > 0 {
		t.Fatalf("mutate mix: %d committed, %d errors", mutations, mutationErrs)
	}
	for _, g := range names {
		if epochs[g] < 2 {
			t.Fatalf("graph %s never advanced past epoch %d", g, epochs[g])
		}
	}

	st := s.StatusSnapshot()
	if st.Cache.HitRate <= 0 {
		t.Fatalf("cache hit-rate %.3f, want > 0 (hits=%d misses=%d)",
			st.Cache.HitRate, st.Cache.Hits, st.Cache.Misses)
	}
	var engineSpans, queueSpans int64
	for name, as := range st.Algos {
		engineSpans += as.Engine.Count
		queueSpans += as.Queue.Count
		if as.Engine.Count > 0 && (as.Engine.P50Ms <= 0 || as.Engine.P99Ms < as.Engine.P50Ms) {
			t.Fatalf("%s engine histogram not populated: %+v", name, as.Engine)
		}
	}
	if engineSpans == 0 || queueSpans == 0 {
		t.Fatalf("histograms empty: engine=%d queue=%d", engineSpans, queueSpans)
	}

	// Drain under residual pressure: every accepted request answered.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after load: %v", err)
	}
}
