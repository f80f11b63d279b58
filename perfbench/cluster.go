package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"adaptivetc"
	"adaptivetc/internal/cluster"
	"adaptivetc/internal/jobstore"
	"adaptivetc/internal/serve"
	"adaptivetc/problems/nqueens"
)

const (
	burstJobs    = 24 // jobs per burst, all submitted to node A
	burstN       = 10 // nqueens-array size of every burst job
	prefillJobs  = 3000
	clusterConns = 2
)

// clusterNode is one in-process node: a 1-worker service with a journal,
// its HTTP front end and cluster endpoints, and the cluster loops.
type clusterNode struct {
	store *jobstore.Store
	svc   *serve.Service
	node  *cluster.Node
	http  *loopback
}

func (n *clusterNode) close() {
	if n.node != nil {
		n.node.Stop()
	}
	if n.http != nil {
		n.http.close()
	}
	if n.svc != nil {
		n.svc.Close()
	}
	if n.store != nil {
		_ = n.store.Close() // shutdown path: the run's results are already checked
	}
}

// clusterBurst is the cluster-burst workload.
type clusterBurst struct {
	a, b      *clusterNode
	client    *http.Client
	want      int64 // oracle value of every burst job
	recoverMS []float64
	rng       *rand.Rand

	segments []clusterSegment
}

// clusterSegment is one measured stretch of bursts with both stores'
// counters around it.
type clusterSegment struct {
	bursts                   []burstResult
	traced                   bool
	fsyncs, records, mallocs uint64
}

// prefillCluster writes both nodes' journals before any timer starts:
// terminal job records and one DSL program registration each, so that
// opening a store replays real records and re-compiles a program.
func prefillCluster(seed int64, dir string) ([2]string, error) {
	var dirs [2]string
	rng := rand.New(rand.NewSource(seed))
	src := adaptivetc.ATCSources()["nqueens"]
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("node-%c", 'a'+i))
		if err := os.RemoveAll(dirs[i]); err != nil {
			return dirs, err
		}
		st, _, err := jobstore.Open(dirs[i], jobstore.Config{})
		if err != nil {
			return dirs, fmt.Errorf("prefill: %w", err)
		}
		hash := fmt.Sprintf("%064x", seed+int64(i))
		recs := []*jobstore.Record{{T: jobstore.TProgram, Hash: hash, Name: "prefill", Source: src}}
		for j := 1; j <= prefillJobs; j++ {
			n := 6 + rng.Intn(4)
			req, _ := json.Marshal(serve.Request{Program: "nqueens-array", N: n}) // a plain struct always marshals
			id := fmt.Sprintf("j%d", j)
			recs = append(recs,
				&jobstore.Record{T: jobstore.TSubmit, ID: id, Req: req},
				&jobstore.Record{T: jobstore.TStart, ID: id},
				&jobstore.Record{T: jobstore.TDone, ID: id, State: string(serve.StateDone), Value: nqueens.Solutions(n), MakespanNS: int64(1e5 + rng.Intn(1e5))})
		}
		for _, r := range recs {
			if err := st.Append(r); err != nil {
				st.Close()
				return dirs, fmt.Errorf("prefill: %w", err)
			}
		}
		if err := st.Close(); err != nil {
			return dirs, fmt.Errorf("prefill: %w", err)
		}
	}
	return dirs, nil
}

// startClusterNode opens the store (journal recovery), starts the service
// on it and serves its API on loopback. The cluster loops start later,
// once both URLs are known.
func startClusterNode(dir string, tr *tracer) (*clusterNode, float64, error) {
	n := &clusterNode{}
	sp := tr.start("jobstore.open", 0, 0)
	t0 := time.Now()
	st, rec, err := jobstore.Open(dir, jobstore.Config{})
	recoverMS := ms(time.Since(t0))
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("open journal: %w", err)
	}
	n.store = st
	sp = tr.start("serve.new", 0, 0)
	n.svc = serve.New(serve.Config{Workers: 1, Journal: st, Recovered: rec})
	tr.end(sp)
	mux := serve.NewMux(n.svc)
	if n.http, err = listen(mux); err != nil {
		n.close()
		return nil, 0, err
	}
	return n, recoverMS, nil
}

// setupClusterBurst recovers both journals, joins the two nodes, waits for
// the first gossip exchange and runs one untimed warm-up burst.
func setupClusterBurst(seed int64, dirs [2]string, tr *tracer) (*clusterBurst, error) {
	w := &clusterBurst{client: newClient(clusterConns), rng: rand.New(rand.NewSource(seed))}
	var nodes [2]*clusterNode
	for i, dir := range dirs {
		n, ms, err := startClusterNode(dir, tr)
		if err != nil {
			w.close()
			return nil, err
		}
		nodes[i] = n
		w.recoverMS = append(w.recoverMS, ms)
		w.a, w.b = nodes[0], nodes[1]
	}
	for i, n := range nodes {
		peer := nodes[1-i]
		n.node = cluster.NewNode(cluster.Config{Self: n.http.url, Peers: []string{peer.http.url}}, n.svc, nil)
		cluster.Mount(n.http.srv.Handler.(*http.ServeMux), n.node)
	}
	// Joining: start the loops and wait for the first gossip exchange,
	// after which both nodes hold a usable view of the other.
	sp := tr.start("cluster.join", 0, 0)
	for _, n := range nodes {
		n.node.Start()
	}
	deadline := time.Now().Add(10 * time.Second)
	for !w.joined() {
		if time.Now().After(deadline) {
			tr.end(sp)
			w.close()
			return nil, fmt.Errorf("cluster: no gossip exchange within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr.end(sp)
	want, err := oracle(nqueens.NewArray(burstN))
	if err != nil {
		w.close()
		return nil, err
	}
	w.want = want
	if r := w.burst(0, nil); r.fails.n > 0 {
		w.close()
		return nil, fmt.Errorf("warm-up burst: %s", r.fails.first[0])
	}
	return w, nil
}

// joined reports whether each node has a usable load report of its peer.
func (w *clusterBurst) joined() bool {
	for _, n := range []*clusterNode{w.a, w.b} {
		ok := false
		for _, v := range n.node.Snapshot().Peers {
			if m, _ := v.(map[string]any); m != nil && m["ok"] == true {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func (w *clusterBurst) close() {
	for _, n := range []*clusterNode{w.a, w.b} {
		if n != nil {
			n.close()
		}
	}
}

// burstResult is one burst's outcome.
type burstResult struct {
	ms          float64 // first POST → last verified result on node A
	serialMS    float64 // one burst job solved serially in-process, just before
	jobs, moved int     // jobs verified; of those, jobs that ran on node B
	fails       failures
	postMS      []float64
	settleLagMS []float64     // node A's Done() − finish on the node that ran it
	delta       cluster.Stats // RebalancedOut (A), StealMoved (B), ForwardFailed (both)
}

// burst submits burstJobs jobs to node A, waits for every one on A's
// Done() channel, fetches each result from A over HTTP and checks it.
// Then, outside the timed part, it follows every forwarded job to the
// node that ran it and checks that each job reached exactly one terminal
// state on exactly one node.
func (w *clusterBurst) burst(id int64, tr *tracer) burstResult {
	var r burstResult
	// The serial reference, on the idle cluster right before the burst,
	// so x_serial compares the two at the same host speed.
	t0 := time.Now()
	ref, err := adaptivetc.NewSerial().Run(nqueens.NewArray(burstN), adaptivetc.Options{Workers: 1, Platform: adaptivetc.NewRealPlatform(id)})
	r.serialMS = ms(time.Since(t0))
	if err != nil || ref.Value != w.want {
		r.fails.add(fmt.Sprintf("serial reference: value %d, err %v", ref.Value, err))
	}
	reqs := make([]serve.Request, burstJobs)
	for i := range reqs {
		reqs[i] = serve.Request{Program: "nqueens-array", N: burstN,
			Tenant:   [2]string{"alpha", "beta"}[w.rng.Intn(2)],
			Priority: [2]string{"interactive", "batch"}[w.rng.Intn(2)]}
	}
	beforeA, beforeB := w.a.node.Snapshot(), w.b.node.Snapshot()
	inA, inB := w.a.svc.Snapshot().ForwardedIn, w.b.svc.Snapshot().ForwardedIn

	parent := tr.start("bench.burst", 0, id)
	t0 = time.Now()
	// Two submitters, one connection each.
	ids := make([]string, burstJobs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clusterConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < burstJobs; i += clusterConns {
				var st serve.JobStatus
				sp := tr.start("http.post", parent, id)
				p0 := time.Now()
				_, err := doJSON(w.client, "POST", w.a.http.url+"/jobs", reqs[i], &st)
				d := ms(time.Since(p0))
				tr.end(sp)
				mu.Lock()
				r.postMS = append(r.postMS, d)
				if err != nil {
					r.fails.add(fmt.Sprintf("POST /jobs on A: %v", err))
				} else {
					ids[i] = st.ID
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sp := tr.start("serve.wait", parent, id)
	doneAt := make([]time.Time, burstJobs)
	for i, jid := range ids {
		job, ok := w.a.svc.Get(jid)
		if jid == "" || !ok {
			continue
		}
		select {
		case <-job.Done():
			doneAt[i] = time.Now()
		case <-time.After(30 * time.Second):
			r.fails.add(fmt.Sprintf("job %s not done on A after 30s", jid))
		}
	}
	tr.end(sp)
	statuses := make([]serve.JobStatus, burstJobs)
	for i, jid := range ids {
		if doneAt[i].IsZero() {
			continue
		}
		gsp := tr.start("http.get", parent, id)
		_, err := doJSON(w.client, "GET", w.a.http.url+"/jobs/"+jid, nil, &statuses[i])
		tr.end(gsp)
		if err != nil {
			r.fails.add(fmt.Sprintf("GET /jobs/%s on A: %v", jid, err))
			doneAt[i] = time.Time{}
		} else if bad := checkStatus(statuses[i], w.want); bad != "" {
			r.fails.add("node A: " + bad)
			doneAt[i] = time.Time{}
		}
	}
	r.ms = ms(time.Since(t0))
	tr.end(parent)

	hops := 0
	for i, st := range statuses {
		if doneAt[i].IsZero() {
			continue
		}
		r.jobs++
		node, finished, n, bad := w.follow(st)
		if bad != "" {
			r.fails.add(bad)
			continue
		}
		hops += n
		if node == w.b {
			r.moved++
		}
		if n > 0 {
			r.settleLagMS = append(r.settleLagMS, ms(doneAt[i].Sub(finished)))
		}
	}
	// Exactly once across nodes: the peers accepted exactly the forwards
	// the job records show, no more (a duplicate) and no fewer.
	if in := w.a.svc.Snapshot().ForwardedIn - inA + w.b.svc.Snapshot().ForwardedIn - inB; in != int64(hops) {
		r.fails.add(fmt.Sprintf("the nodes accepted %d forwarded jobs, the job records show %d forwards", in, hops))
	}
	afterA, afterB := w.a.node.Snapshot(), w.b.node.Snapshot()
	r.delta = cluster.Stats{
		RebalancedOut: afterA.RebalancedOut - beforeA.RebalancedOut,
		StealMoved:    afterB.StealMoved - beforeB.StealMoved,
		ForwardFailed: afterA.ForwardFailed + afterB.ForwardFailed - beforeA.ForwardFailed - beforeB.ForwardFailed,
	}
	return r
}

// follow walks a terminal job from node A along its forwards to the node
// that ran it, checking every record on the way. It returns that node,
// when the job finished there, and the number of forwards.
func (w *clusterBurst) follow(st serve.JobStatus) (ran *clusterNode, finished time.Time, hops int, bad string) {
	node := w.a
	for ; st.ForwardedTo != ""; hops++ {
		if hops == 4 {
			return nil, finished, hops, fmt.Sprintf("job %s forwarded more than 4 times", st.ID)
		}
		switch st.ForwardedTo {
		case w.a.http.url:
			node = w.a
		case w.b.http.url:
			node = w.b
		default:
			return nil, finished, hops, fmt.Sprintf("job %s forwarded to unknown node %s", st.ID, st.ForwardedTo)
		}
		var next serve.JobStatus
		if _, err := doJSON(w.client, "GET", node.http.url+"/jobs/"+st.RemoteID, nil, &next); err != nil {
			return nil, finished, hops, fmt.Sprintf("job %s: remote %s: %v", st.ID, st.RemoteID, err)
		}
		if bad := checkStatus(next, w.want); bad != "" {
			return nil, finished, hops, fmt.Sprintf("job %s, remote record: %s", st.ID, bad)
		}
		st = next
	}
	if job, ok := node.svc.Get(st.ID); ok {
		finished = job.Created.Add(time.Duration((st.QueueWaitMS + st.MakespanMS) * 1e6))
	}
	return node, finished, hops, ""
}

// quiesce waits until neither node holds queued or running work, so the
// next burst starts from an idle cluster.
func (w *clusterBurst) quiesce() {
	deadline := time.Now().Add(10 * time.Second)
	for w.a.svc.LoadScore()+w.b.svc.LoadScore() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// storeCounters sums both journals' fsync and record counters.
func (w *clusterBurst) storeCounters() (fsyncs, records uint64) {
	for _, n := range []*clusterNode{w.a, w.b} {
		fsyncs += uint64(n.store.Fsyncs())
		records += uint64(n.store.Records())
	}
	return fsyncs, records
}

// run measures bursts until d has passed, each from an idle cluster.
func (w *clusterBurst) run(d time.Duration, tr *tracer) {
	seg := clusterSegment{traced: tr != nil}
	f0, r0 := w.storeCounters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(d)
	for id := int64(len(w.segments)+1) << 20; time.Now().Before(deadline); id++ {
		w.quiesce()
		seg.bursts = append(seg.bursts, w.burst(id, tr))
	}
	runtime.ReadMemStats(&ms1)
	f1, r1 := w.storeCounters()
	seg.fsyncs, seg.records, seg.mallocs = f1-f0, r1-r0, ms1.Mallocs-ms0.Mallocs
	w.segments = append(w.segments, seg)
}

// summary folds the segments measured with (traced) or without tracing.
// The operation is one burst; x_serial is its time over the serial time
// of its jobs run one after another (measured before each burst).
func (w *clusterBurst) summary(traced bool) summary {
	out := summary{layer: map[string]float64{}}
	var lat, refs, post, lag []float64
	var jobs, moved int
	var busy float64
	var rebalanced, stolen, fwdFailed int64
	var fsyncs, records, mallocs uint64
	for _, seg := range w.segments {
		for _, b := range seg.bursts {
			out.attempted += burstJobs
			out.fails.merge(b.fails)
		}
		if seg.traced != traced {
			continue
		}
		fsyncs += seg.fsyncs
		records += seg.records
		mallocs += seg.mallocs
		for _, b := range seg.bursts {
			if b.fails.n > 0 {
				continue
			}
			lat = append(lat, b.ms)
			refs = append(refs, b.serialMS)
			busy += b.ms / 1e3
			jobs += b.jobs
			moved += b.moved
			post = append(post, b.postMS...)
			lag = append(lag, b.settleLagMS...)
			rebalanced += b.delta.RebalancedOut
			stolen += b.delta.StealMoved
			fwdFailed += b.delta.ForwardFailed
		}
	}
	out.ops = len(lat)
	if out.ops == 0 {
		out.coverage = "no burst completed"
		return out
	}
	out.opsPerS = float64(jobs) / busy
	out.p50 = median(lat)
	out.tail, out.tailPct = tail(lat)
	// Medians of both sides, not a per-burst ratio: a burst is partly
	// paced by the gossip interval, so its time does not follow host
	// speed burst by burst.
	out.xSerial = median(lat) / (burstJobs * median(refs))
	n := float64(len(lat))
	L := out.layer
	L["http.post_ms"] = median(post)
	L["proc.allocs_per_op"] = float64(mallocs) / n
	L["jobstore.recover_ms"] = median(w.recoverMS)
	L["jobstore.fsyncs_per_record"] = ratio(fsyncs, records)
	L["cluster.moved_share"] = ratio(moved, jobs)
	L["cluster.rebalanced_out"] = float64(rebalanced) / n
	L["cluster.steal_moved"] = float64(stolen) / n
	L["cluster.forward_failed"] = float64(fwdFailed) / n
	if len(lag) > 0 {
		L["cluster.settle_lag_ms"] = median(lag)
	}
	out.notes = append(out.notes, fmt.Sprintf("burst_ms %.3f  burst_p%g_ms %.3f (%d bursts of %d)  moved to B %d of %d jobs (%.1f%%)",
		out.p50, out.tailPct, out.tail, out.ops, burstJobs, moved, jobs, 100*ratio(moved, jobs)))
	if moved == 0 {
		out.coverage = "no job moved to node B: the cluster layer did no work"
	}
	return out
}
