// End-to-end test of the real cluster tier: two in-process serve services
// wired through the HTTP/JSON transport over httptest servers — the same
// path `adaptivetc-serve -peers` runs, minus the TCP listener setup.
package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaptivetc/internal/serve"
)

type testNode struct {
	svc  *serve.Service
	node *Node
	url  string
}

// startCluster brings up fully-peered nodes, one per service config.
func startCluster(t *testing.T, configs []serve.Config, ccfg Config) []*testNode {
	t.Helper()
	nodes := make([]*testNode, len(configs))
	muxes := make([]*http.ServeMux, len(configs))
	for i, c := range configs {
		svc := serve.New(c)
		mux := serve.NewMux(svc)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		nodes[i] = &testNode{svc: svc, url: srv.URL}
		muxes[i] = mux
	}
	for i, tn := range nodes {
		cfg := ccfg
		cfg.Self = tn.url
		for j, peer := range nodes {
			if j != i {
				cfg.Peers = append(cfg.Peers, peer.url)
			}
		}
		tn.node = NewNode(cfg, tn.svc, nil)
		Mount(muxes[i], tn.node)
		tn.node.Start()
		t.Cleanup(tn.node.Stop)
		t.Cleanup(tn.svc.Close)
	}
	return nodes
}

// waitDone polls a job on its owning service until terminal.
func waitDone(t *testing.T, svc *serve.Service, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := svc.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		st, _, err := j.Snapshot()
		switch st {
		case serve.StateDone:
			return
		case serve.StateFailed, serve.StateCancelled:
			t.Fatalf("job %s ended %s: %v", id, st, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
}

// TestTwoNodeForwarding pins the tentpole's real-transport path: skewed
// load at node A must spill to node B via the forward/steal plane, every
// job must complete on the client-visible record at A, and the gauges
// must return to zero once the burst settles.
func TestTwoNodeForwarding(t *testing.T) {
	nodes := startCluster(t,
		[]serve.Config{
			{Workers: 1, QueueCapacity: 4},
			{Workers: 2, QueueCapacity: 32},
		},
		Config{GossipInterval: 5 * time.Millisecond, ForwardThreshold: 2, Batch: 4})
	a, b := nodes[0], nodes[1]

	// Wait for the first gossip exchange: forward-on-full needs a load
	// view of B before it can route around a full backlog.
	viewDeadline := time.Now().Add(5 * time.Second)
	for len(a.node.peerViews()) == 0 {
		if time.Now().After(viewDeadline) {
			t.Fatalf("node A never learned node B's load")
		}
		time.Sleep(time.Millisecond)
	}

	// A long blocker pins A's lone worker, then a burst piles up behind it.
	blocker, err := a.svc.Submit(serve.Request{Program: "nqueens-array", N: 11, TimeoutMS: 30000})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	var ids []string
	for i := 0; i < 10; i++ {
		j, err := a.svc.Submit(serve.Request{Program: "fib", N: 14, Tenant: "burst", TimeoutMS: 30000})
		if err != nil {
			t.Fatalf("burst %d: %v (forward-on-full should have absorbed this)", i, err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitDone(t, a.svc, id)
	}
	waitDone(t, a.svc, blocker.ID)

	ma, mb := a.svc.Snapshot(), b.svc.Snapshot()
	if ma.ForwardedOut == 0 {
		t.Errorf("node A forwarded nothing; A=%+v cluster=%+v", ma, a.node.Snapshot())
	}
	if mb.ForwardedIn == 0 || mb.Completed == 0 {
		t.Errorf("node B forwarded_in=%d completed=%d, want both > 0", mb.ForwardedIn, mb.Completed)
	}
	if ma.ForwardedNow != 0 {
		t.Errorf("node A still has %d forwards pending after all jobs settled", ma.ForwardedNow)
	}
}

// TestClusterStatsEndpoint smoke-checks the mounted endpoints a peer (and
// the CI smoke script) relies on.
func TestClusterStatsEndpoint(t *testing.T) {
	nodes := startCluster(t,
		[]serve.Config{{Workers: 1, QueueCapacity: 4}, {Workers: 1, QueueCapacity: 4}},
		Config{GossipInterval: 5 * time.Millisecond})
	tr := NewHTTPTransport(0)
	rep, err := tr.Load(t.Context(), nodes[0].url)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if rep.Node != nodes[0].url {
		t.Errorf("load report identifies %q, want %q", rep.Node, nodes[0].url)
	}
	resp, err := http.Get(nodes[1].url + "/cluster/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats returned %d", resp.StatusCode)
	}
}

// TestClusterOversizedBody checks that the peer endpoints stop reading at
// serve.MaxBodyBytes and answer 413.
func TestClusterOversizedBody(t *testing.T) {
	svc := serve.New(serve.Config{Workers: 1, QueueCapacity: 4})
	t.Cleanup(svc.Close)
	mux := http.NewServeMux()
	Mount(mux, NewNode(Config{Self: "http://self"}, svc, nil))
	huge := `{"thief":"` + strings.Repeat("a", serve.MaxBodyBytes) + `"}`
	for _, path := range []string{"/cluster/forward", "/cluster/steal"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(huge)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(huge), rec.Code)
		}
	}
	if m := svc.Snapshot(); m.Submitted != 0 {
		t.Fatalf("oversized forward acted on: submitted=%d", m.Submitted)
	}
}
