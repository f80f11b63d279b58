package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptivetc"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/serve"
	"adaptivetc/problems/registry"
)

const (
	serveClients = 2  // closed-loop clients, one HTTP connection each
	programEvery = 40 // a client's every 40th job runs on a fresh DSL variant
	refEvery     = 4  // ... and every 4th is followed by a serial reference solve
)

// jobTemplate is one kind of job a client submits, with its oracle value.
type jobTemplate struct {
	req  serve.Request
	want int64
	idx  int                // index in serveSmall.templates
	prog adaptivetc.Program // the same program, for in-process serial references
}

// serveSmall is the serve-small workload: one in-memory service with 2
// workers behind NewMux on loopback, driven by a closed loop of 2 clients.
type serveSmall struct {
	seed   int64
	svc    *serve.Service
	http   *loopback
	client *http.Client
	url    string

	templates []jobTemplate
	dslSrc    string // the nqueens DSL source fresh variants are made from
	dslIdx    int    // the template whose program the fresh variants compute
	salt      atomic.Int64

	segments []serveSegment
}

// setupServeSmall starts the service, registers the DSL programs over
// HTTP, computes every template's oracle value serially and warms the
// whole path up with untimed jobs.
func setupServeSmall(seed int64, tr *tracer) (*serveSmall, error) {
	w := &serveSmall{seed: seed}
	sp := tr.start("serve.new", 0, 0)
	w.svc = serve.New(serve.Config{
		Workers: 2,
		// A small cache, so fresh variants evict old ones while the base
		// programs, used every few jobs, stay resident.
		ProgramCache: progstore.Config{MaxPrograms: 8},
	})
	tr.end(sp)
	lb, err := listen(serve.NewMux(w.svc))
	if err != nil {
		w.svc.Close()
		return nil, err
	}
	w.http, w.client, w.url = lb, newClient(serveClients), lb.url
	if err := w.addTemplates(tr); err != nil {
		w.close()
		return nil, err
	}
	// Warm-up: every template ten times through the full HTTP path,
	// untimed, so connections, caches and the pool are hot.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10*len(w.templates); i++ {
		if _, bad := w.runJob(w.decorate(w.templates[i%len(w.templates)], rng), 0, nil); bad != "" {
			w.close()
			return nil, fmt.Errorf("warm-up: %s", bad)
		}
	}
	return w, nil
}

// addTemplates builds the job mix: registry programs at tiny sizes (tens
// of µs of search each) and DSL programs registered via POST /programs.
func (w *serveSmall) addTemplates(tr *tracer) error {
	add := func(req serve.Request, p adaptivetc.Program) error {
		want, err := oracle(p)
		if err != nil {
			return err
		}
		w.templates = append(w.templates, jobTemplate{req: req, want: want, idx: len(w.templates), prog: p})
		return nil
	}
	for _, r := range []struct {
		name string
		ns   []int
	}{{"nqueens-array", []int{5, 6, 7}}, {"fib", []int{10, 11, 12, 13, 14}}, {"comp", []int{10}}, {"sudoku-empty4", []int{0}}} {
		for _, n := range r.ns {
			p, err := registry.Build(r.name, registry.Params{N: n})
			if err != nil {
				return fmt.Errorf("build %s(%d): %w", r.name, n, err)
			}
			if err := add(serve.Request{Program: r.name, N: n}, p); err != nil {
				return err
			}
		}
	}
	srcs := adaptivetc.ATCSources()
	w.dslSrc = srcs["nqueens"]
	for _, d := range []struct {
		name string
		ns   []int
	}{{"nqueens", []int{5, 6}}, {"fib", []int{10, 11, 12}}} {
		hash, _, err := w.postProgram("base-"+d.name, srcs[d.name], tr, 0)
		if err != nil {
			return err
		}
		for _, n := range d.ns {
			p, err := adaptivetc.CompileATC(d.name, srcs[d.name], map[string]int64{"n": int64(n)})
			if err != nil {
				return err
			}
			if d.name == "nqueens" && n == 5 {
				w.dslIdx = len(w.templates)
			}
			if err := add(serve.Request{ProgramHash: hash, N: n}, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracle solves p on the serial engine: the value every result is
// checked against.
func oracle(p adaptivetc.Program) (int64, error) {
	res, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{Workers: 1, Platform: adaptivetc.NewRealPlatform(1)})
	if err != nil {
		return 0, fmt.Errorf("oracle %s: %w", p.Name(), err)
	}
	return res.Value, nil
}

// decorate picks the tenant and priority of one submission.
func (w *serveSmall) decorate(t jobTemplate, rng *rand.Rand) jobTemplate {
	t.req.Tenant = [2]string{"alpha", "beta"}[rng.Intn(2)]
	t.req.Priority = [2]string{"interactive", "batch"}[rng.Intn(2)]
	return t
}

func (w *serveSmall) close() {
	if w.http != nil {
		w.http.close()
	}
	w.svc.Close()
}

// postProgram registers src via POST /programs and returns its hash and,
// when the service compiled it (201), how long the call took in ms.
func (w *serveSmall) postProgram(name, src string, tr *tracer, id int64) (hash string, compileMS float64, err error) {
	var st serve.ProgramStatus
	sp := tr.start("progstore.put", 0, id)
	t0 := time.Now()
	code, err := doJSON(w.client, "POST", w.url+"/programs", map[string]string{"name": name, "source": src}, &st)
	d := ms(time.Since(t0))
	tr.end(sp)
	if err != nil {
		return "", 0, fmt.Errorf("POST /programs %s: %w", name, err)
	}
	if code == http.StatusCreated {
		compileMS = d
	}
	return st.Hash, compileMS, nil
}

// jobTiming is one job's client-side breakdown, in ms. A run keeps one
// per job, so the breakdown is stored compactly: the benchmark's own
// memory counts in rss_mb.
type jobTiming struct {
	total                 float64
	template              int32
	post, get             float32
	queueWaitMS, makespan float32 // as the service reports them
	publishLag            float32 // Done() − (created + queue wait + makespan)
}

// runJob submits one job over HTTP, waits on the in-process Done()
// channel, fetches the result over HTTP and checks it against the oracle.
func (w *serveSmall) runJob(t jobTemplate, id int64, tr *tracer) (jobTiming, string) {
	t0 := time.Now()
	var st serve.JobStatus
	sp := tr.start("http.post", 0, id)
	_, err := doJSON(w.client, "POST", w.url+"/jobs", t.req, &st)
	tr.end(sp)
	t1 := time.Now()
	if err != nil {
		return jobTiming{}, fmt.Sprintf("POST /jobs %+v: %v", t.req, err)
	}
	job, ok := w.svc.Get(st.ID)
	if !ok {
		return jobTiming{}, fmt.Sprintf("job %s accepted but unknown to Service.Get", st.ID)
	}
	sp = tr.start("serve.wait", 0, id)
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		tr.end(sp)
		return jobTiming{}, fmt.Sprintf("job %s not done after 30s", st.ID)
	}
	tr.end(sp)
	t2 := time.Now()
	sp = tr.start("http.get", 0, id)
	_, err = doJSON(w.client, "GET", w.url+"/jobs/"+st.ID, nil, &st)
	tr.end(sp)
	t3 := time.Now()
	if err != nil {
		return jobTiming{}, fmt.Sprintf("GET /jobs/%s: %v", st.ID, err)
	}
	if bad := checkStatus(st, t.want); bad != "" {
		return jobTiming{}, bad
	}
	settled := job.Created.Add(time.Duration((st.QueueWaitMS + st.MakespanMS) * 1e6))
	return jobTiming{
		total: ms(t3.Sub(t0)), template: int32(t.idx),
		post: float32(ms(t1.Sub(t0))), get: float32(ms(t3.Sub(t2))),
		queueWaitMS: float32(st.QueueWaitMS), makespan: float32(st.MakespanMS),
		publishLag: float32(ms(t2.Sub(settled))),
	}, ""
}

// checkStatus verifies a terminal JobStatus against the oracle value.
func checkStatus(st serve.JobStatus, want int64) string {
	switch {
	case st.State != serve.StateDone:
		return fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Value == nil || *st.Value != want:
		got := "none"
		if st.Value != nil {
			got = fmt.Sprint(*st.Value)
		}
		return fmt.Sprintf("job %s (%s%s): value %s, oracle %d", st.ID, st.Program, st.ProgramHash, got, want)
	case st.Violations != "":
		return fmt.Sprintf("job %s: invariant violations: %s", st.ID, st.Violations)
	}
	return ""
}

// serveSegment is one measured stretch of the closed loop, with the
// service counters and process allocations around it.
type serveSegment struct {
	traced        bool
	timings       []jobTiming
	refMS         [][]float64 // per template: in-process serial solves
	compileMS     []float64   // POST /programs calls that compiled
	ops           int         // jobs and program registrations attempted
	fails         failures
	elapsed       time.Duration
	before, after serve.Metrics
	mallocs       uint64
}

// run measures one stretch of the closed loop: 2 clients, each submitting
// its next job only after the previous one's result was verified. A
// client's every programEvery-th job runs on a freshly registered DSL
// variant (a compile miss), and halfway between those it re-registers a
// base source (a cache hit).
func (w *serveSmall) run(d time.Duration, tr *tracer) {
	seg := serveSegment{traced: tr != nil, refMS: make([][]float64, len(w.templates))}
	var err error
	if seg.before, err = w.metrics(); err != nil {
		seg.fails.add(err.Error())
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := w.client1(c, deadline, tr)
			mu.Lock()
			seg.merge(local)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	seg.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	seg.mallocs = ms1.Mallocs - ms0.Mallocs
	if seg.after, err = w.metrics(); err != nil {
		seg.fails.add(err.Error())
	}
	w.segments = append(w.segments, seg)
}

// client1 is one closed-loop client until deadline.
func (w *serveSmall) client1(c int, deadline time.Time, tr *tracer) serveSegment {
	rng := rand.New(rand.NewSource(w.seed*serveClients + int64(c) + 1))
	seg := serveSegment{refMS: make([][]float64, len(w.templates))}
	for op := 0; time.Now().Before(deadline); op++ {
		id := int64(c)<<32 | int64(op)
		t := w.templates[rng.Intn(len(w.templates))]
		switch op % programEvery {
		case programEvery - 1:
			seg.ops++
			salt := w.seed%1000*1_000_000 + w.salt.Add(1)
			hash, compileMS, err := w.postProgram(fmt.Sprintf("variant-%d", salt), fmt.Sprintf("param salt = %d\n%s", salt, w.dslSrc), tr, id)
			if err != nil {
				seg.fails.add(err.Error())
				continue
			}
			seg.compileMS = append(seg.compileMS, compileMS)
			t = w.templates[w.dslIdx]
			t.req.ProgramHash = hash
		case programEvery/2 - 1:
			seg.ops++
			if _, _, err := w.postProgram("base-nqueens", w.dslSrc, tr, id); err != nil {
				seg.fails.add(err.Error())
			}
		}
		seg.ops++
		tm, bad := w.runJob(w.decorate(t, rng), id, tr)
		if bad != "" {
			seg.fails.add(bad)
			continue
		}
		seg.timings = append(seg.timings, tm)
		if op%refEvery == 0 {
			// The serial reference, interleaved with the traffic so
			// x_serial compares the two at the same host speed.
			r0 := time.Now()
			if _, err := adaptivetc.NewSerial().Run(t.prog, adaptivetc.Options{Workers: 1, Platform: adaptivetc.NewRealPlatform(1)}); err != nil {
				seg.fails.add(fmt.Sprintf("serial reference %s: %v", t.prog.Name(), err))
				continue
			}
			seg.refMS[t.idx] = append(seg.refMS[t.idx], ms(time.Since(r0)))
		}
	}
	return seg
}

// merge folds one client's share of a stretch into seg.
func (seg *serveSegment) merge(o serveSegment) {
	seg.timings = append(seg.timings, o.timings...)
	for i, r := range o.refMS {
		seg.refMS[i] = append(seg.refMS[i], r...)
	}
	seg.compileMS = append(seg.compileMS, o.compileMS...)
	seg.ops += o.ops
	seg.fails.merge(o.fails)
}

// metrics reads the service counters over HTTP, as an operator would.
func (w *serveSmall) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	if _, err := doJSON(w.client, "GET", w.url+"/metrics", nil, &m); err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	return m, nil
}

// summary folds the stretches measured with (traced) or without tracing.
// The operation is one job, POST to verified result; x_serial is its
// latency over the in-process serial time of the same program.
func (w *serveSmall) summary(traced bool) summary {
	out := summary{layer: map[string]float64{}}
	var lat, xs, post, get, qw, mk, lag, compile []float64
	var elapsed time.Duration
	var mallocs uint64
	var hits, misses, evictions, retries, completed int64
	for _, seg := range w.segments {
		out.attempted += seg.ops
		out.fails.merge(seg.fails)
		if v := seg.after.InvariantViolations - seg.before.InvariantViolations; v > 0 {
			out.fails.addN(int(v), fmt.Sprintf("%d invariant violations", v))
		}
		if seg.traced != traced {
			continue
		}
		refs := make([]float64, len(seg.refMS))
		for i, r := range seg.refMS {
			refs[i] = median(r)
		}
		for _, t := range seg.timings {
			lat = append(lat, t.total)
			if refs[t.template] > 0 {
				xs = append(xs, t.total/refs[t.template])
			}
			post = append(post, float64(t.post))
			get = append(get, float64(t.get))
			qw = append(qw, float64(t.queueWaitMS))
			mk = append(mk, float64(t.makespan))
			lag = append(lag, float64(t.publishLag))
		}
		compile = append(compile, seg.compileMS...)
		elapsed += seg.elapsed
		mallocs += seg.mallocs
		hits += seg.after.CompileHits - seg.before.CompileHits
		misses += seg.after.CompileMisses - seg.before.CompileMisses
		evictions += seg.after.ProgramEvictions - seg.before.ProgramEvictions
		retries += seg.after.AdmissionRetries - seg.before.AdmissionRetries
		completed += seg.after.Completed - seg.before.Completed
	}
	out.ops = len(lat)
	if out.ops == 0 {
		out.coverage = "no job completed"
		return out
	}
	out.opsPerS = float64(len(lat)) / elapsed.Seconds()
	out.p50 = median(lat)
	out.tail, out.tailPct = tail(lat)
	out.xSerial = median(xs)
	L := out.layer
	L["lang.compile_ms"] = median(compile)
	L["progstore.hit_ratio"] = ratio(hits, hits+misses)
	L["http.post_ms"] = median(post)
	L["http.get_ms"] = median(get)
	L["serve.queue_wait_ms"] = median(qw)
	L["serve.queue_wait_tail_ms"], _ = tail(qw)
	L["serve.makespan_ms"] = median(mk)
	L["serve.publish_lag_ms"] = median(lag)
	L["serve.admission_retries_per_job"] = ratio(retries, completed)
	L["proc.allocs_per_op"] = float64(mallocs) / float64(len(lat))
	out.notes = append(out.notes,
		fmt.Sprintf("jobs_per_s %.1f  p50_ms %.4f  p%g_ms %.4f (%d jobs)", out.opsPerS, out.p50, out.tailPct, out.tail, out.ops),
		fmt.Sprintf("compile hits %d  misses %d  evictions %d  admission retries %d", hits, misses, evictions, retries))
	if hits == 0 || misses == 0 {
		out.coverage = fmt.Sprintf("the compile cache saw %d hits and %d misses; both must be nonzero", hits, misses)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
