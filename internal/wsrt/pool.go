// The resident scheduler pool: the pool-lifetime half of the pool/job
// split. A Pool owns N long-lived worker goroutines (Real platform), their
// deques and their frame free-lists, and executes a stream of jobs — root
// tasks of any wsrt engine — against them. Between jobs the workers park on
// a channel instead of exiting, so a job's cost is one wake/barrier cycle,
// not deque construction, goroutine spawning and free-list warm-up.
//
// The dispatcher pulls: whenever a shard slot is open it takes the next job
// from the pool's Source, and it waits on the source's ready signal when
// there is none. The default source is the bounded FIFO behind Submit,
// which never blocks and reports a full queue as ErrQueueFull
// (backpressure) rather than letting callers pile up behind a busy pool; a
// serving layer passes its own queue instead (PoolConfig.Source). Up to
// MaxConcurrentJobs jobs run at once, each bound to its own shard — a
// disjoint group of workers handed out by the shard allocator (shard.go). Work-stealing parallelism is
// *within* a shard; a job's runtime is built over the shard's deques only,
// so steals are confined to the shard's victim set, one job's need_task
// starvation signal cannot re-open another job's subtree, and every
// scheduler invariant of the batch runtime holds per job exactly as it
// does for a whole-pool run. A per-job tracer therefore still observes its
// job in isolation, and the memory of a misbehaving job is bounded to one
// shard's worth of deques.
//
// Every job gets its own Runtime (value, failure, stats, tracer) and its
// own cooperative stop flag wired to the submitter's context, checked at
// the runtime's poll points; a cancelled or expired job unwinds through the
// sched.Abort path, and its last worker then resets the shard's deques — and
// only the shard's — so leftover frames cannot poison the next job while
// neighbouring shards keep running untouched.
package wsrt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptivetc/internal/deque"
	"adaptivetc/internal/faults"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/vtime"
)

// PoolEngine is implemented by scheduling engines whose jobs can run on a
// resident Pool: everything built on this package (Cilk, Cilk-SYNCHED, the
// cut-off baselines, AdaptiveTC, help-first, SLAW). Tascell and the serial
// reference are not pool engines — they bring their own runtimes.
type PoolEngine interface {
	// Name identifies the engine in results.
	Name() string
	// NewExec builds the per-job execution strategy for a pool (or run)
	// with n workers. opt supplies strategy parameters (cutoff overrides,
	// fast_2 multiplier); it carries no pool state.
	NewExec(n int, opt sched.Options) Engine
}

// Pool errors.
var (
	// ErrQueueFull reports that the admission queue is at capacity; the
	// submitter should back off and retry (backpressure).
	ErrQueueFull = errors.New("wsrt: job queue full")
	// ErrPoolClosed reports a submission to (or a job drained by) a pool
	// that has been closed.
	ErrPoolClosed = errors.New("wsrt: pool closed")
)

// PoolConfig configures NewPool.
type PoolConfig struct {
	// Workers is the worker count; zero means 1.
	Workers int
	// QueueCapacity bounds the FIFO behind Submit; zero means 64. Ignored
	// when Source is set.
	QueueCapacity int
	// Source, when non-nil, replaces the FIFO behind Submit as the queue
	// the dispatcher pulls from; Submit then fails. Close stops the pulls
	// and leaves whatever is still queued to the source's owner.
	Source Source
	// MaxConcurrentJobs is the number of jobs the pool will run at once,
	// each on its own disjoint worker shard. Zero or one means the classic
	// single-job pool (one shard spanning every worker); values above
	// Workers are clamped to Workers.
	MaxConcurrentJobs int
	// ShardPolicy selects how shards are sized (see shard.go). The zero
	// value means ShardStatic. It can be flipped at runtime with
	// SetShardPolicy.
	ShardPolicy ShardPolicy
	// Options supplies the pool-wide scheduling parameters: cost model,
	// deque capacity and growability, max_stolen_num, seed. Platform, Ctx
	// and Tracer are ignored — the pool is always Real-platform, and
	// context/tracer are per-job (see JobSpec).
	Options sched.Options
	// Faults, when non-nil, injects pool-level faults: admission-queue
	// saturation (Submit reports ErrQueueFull though capacity remains) and
	// shard-allocator starvation (the dispatcher briefly cannot form a
	// shard, so it leaves the next job in the source). Worker-level faults
	// are per-job (see JobSpec.Faults). Nil — the default — costs nothing
	// anywhere.
	Faults *faults.Plan
}

// Source is the queue a pool's dispatcher pulls its next job from. Pop is
// called only by the dispatcher, and only while a shard slot is open;
// pushes may come from any goroutine.
type Source interface {
	// Pop removes and returns the next job to run, or ok == false when the
	// source is empty. The job must carry Prog and Engine.
	Pop() (spec JobSpec, ok bool)
	// Len reports the jobs waiting: the demand signal the adaptive and SLO
	// shard policies size shards by.
	Len() int
	// Ready returns a channel that receives after a push, so a dispatcher
	// that found the source empty wakes up. A spurious wake is harmless;
	// a missed one strands the job, so it must be a buffered channel that
	// every push signals without blocking.
	Ready() <-chan struct{}
}

// fifo is the default Source: the bounded queue behind Submit.
type fifo struct {
	specs chan JobSpec
	ready chan struct{}
}

func newFIFO(capacity int) *fifo {
	if capacity <= 0 {
		capacity = 64
	}
	return &fifo{specs: make(chan JobSpec, capacity), ready: make(chan struct{}, 1)}
}

// push enqueues spec, or reports false when the queue is at its bound.
func (q *fifo) push(spec JobSpec) bool {
	select {
	case q.specs <- spec:
	default:
		return false
	}
	select {
	case q.ready <- struct{}{}:
	default:
	}
	return true
}

func (q *fifo) Pop() (JobSpec, bool) {
	select {
	case spec := <-q.specs:
		return spec, true
	default:
		return JobSpec{}, false
	}
}

func (q *fifo) Len() int { return len(q.specs) }

func (q *fifo) Ready() <-chan struct{} { return q.ready }

// JobSpec describes one job: a root task to execute on the pool.
type JobSpec struct {
	// Prog is the program whose root task the job runs.
	Prog sched.Program
	// Engine is the scheduling strategy for this job.
	Engine PoolEngine
	// Ctx, when non-nil, cancels the job cooperatively — while it is still
	// queued (it then never starts) or mid-run (it aborts at the next poll
	// point). Nil means the job cannot be cancelled.
	Ctx context.Context
	// Tracer, when non-nil, records the job's scheduler events. The pool
	// Inits it at job start with the job's shard width; the recorder must
	// not be shared with another in-flight job.
	Tracer *trace.Recorder
	// Profile enables the per-phase time breakdown for this job.
	Profile bool
	// Faults, when non-nil, injects the plan's worker- and deque-level
	// faults into this job only: stalls and panics at node entry, delayed
	// deposits, forced overflows, forced steal failures. Streams are
	// derived per shard-local worker, so the same plan on the same seed
	// draws the same decisions whichever shard hosts the job.
	Faults *faults.Plan
	// Deadline, when positive, bounds the job's run time (counted from the
	// moment its shard workers wake, not from submission). On expiry the
	// job's cooperative stop flag fires and the job aborts at the next poll
	// point with an error wrapping context.DeadlineExceeded — converting a
	// stalled worker into an orderly abort instead of a wedged shard.
	Deadline time.Duration
	// StealPolicy overrides the pool-wide steal strategy
	// (PoolConfig.Options.StealPolicy) for this job: "random",
	// "steal-half", "richest-first" or "shard-local". Empty means the pool
	// default; unknown names fall back to "random".
	StealPolicy string
	// FirstSolution runs the job with first-solution-wins semantics (see
	// sched.Options.FirstSolution): the first nonzero terminal value becomes
	// the result, siblings are cancelled cooperatively. Done jobs should be
	// invariant-checked with trace.CheckTruncatedMultiplicity — the losers'
	// deposit cascades are truncated by design.
	FirstSolution bool
	// OnStart and OnDone, when non-nil, follow the job through the pool.
	// Both run on the job's own finisher goroutine, never on the
	// dispatcher, so a slow callback (a journal write, say) holds up only
	// its own job: OnStart once the job's shard workers have been woken,
	// OnDone with the outcome after the shard has been handed back. A job
	// retired without running (cancelled while queued, or drained by
	// Close) gets OnDone only.
	OnStart func()
	OnDone  func(sched.Result, error)

	handle *JobHandle // set by Submit; nil for jobs from a PoolConfig.Source
}

// JobHandle is the submitter's view of an in-flight job.
type JobHandle struct {
	started   chan struct{}
	done      chan struct{}
	submitted time.Time
	shard     []int
	startAt   time.Time
	endAt     time.Time
	res       sched.Result
	err       error
}

// Started is closed when the job leaves the queue and its shard's workers
// begin.
func (h *JobHandle) Started() <-chan struct{} { return h.started }

// Done is closed when the job has finished (completed, failed, cancelled,
// or drained by Close).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Shard returns the global ids of the pool workers the job is bound to.
// Valid after Started; nil for a job that never started.
func (h *JobHandle) Shard() []int { return h.shard }

// Interval returns the window during which the job held its shard
// exclusively: start is stamped before the shard's workers wake, end after
// the last worker hit the barrier and the shard's deques were reset, but
// before the shard returns to the free set. Valid after Done; both zero
// for a job that never started.
func (h *JobHandle) Interval() (start, end time.Time) { return h.startAt, h.endAt }

// Result blocks until the job finishes and returns its outcome. The
// result's Stats.QueueWait records the admission delay; Makespan is the
// job's wall-clock run time; Workers and Shard describe the worker group
// the job actually ran on.
func (h *JobHandle) Result() (sched.Result, error) {
	<-h.done
	return h.res, h.err
}

// poolJob pairs a spec with its handle and job-scoped runtime.
type poolJob struct {
	spec      JobSpec
	name      string
	rt        *Runtime
	submitted time.Time
	started   time.Time
	shard     []int             // global worker ids, shard-local order
	deques    []deque.WorkDeque // the shard's deques, indexed by local id
	workers   []*Worker         // the shard's workers, indexed by local id
	release   func() bool       // context watch release
	deadline  *time.Timer       // run-deadline timer; nil unless JobSpec.Deadline
	left      atomic.Int32      // shard workers still running this job
	settled   sync.WaitGroup    // held until the shard is handed back
	res       sched.Result      // the outcome, valid once settled
	err       error             // likewise
	h         *JobHandle        // nil unless the job came through Submit
}

// finish settles the job: its handle (if any) resolves, then OnDone runs.
func (j *poolJob) finish(res sched.Result, err error) {
	if h := j.h; h != nil {
		h.res, h.err = res, err
		close(h.done)
	}
	if j.spec.OnDone != nil {
		j.spec.OnDone(res, err)
	}
}

// shardRun is one worker's wake message: the job to run and the worker's
// local index within the job's shard.
type shardRun struct {
	job   *poolJob
	local int
}

// Pool is a resident scheduler: long-lived workers serving a stream of
// jobs, up to MaxConcurrentJobs of them concurrently on disjoint worker
// shards. Create with NewPool, submit with Submit, shut down with Close.
type Pool struct {
	n       int
	maxJobs int
	opt     sched.Options

	deques   []deque.WorkDeque
	workers  []*Worker
	wake     []chan shardRun
	src      Source
	fifo     *fifo         // Submit's queue when it is the source; else nil
	finished chan *poolJob // jobs' last workers hand shards back here
	quit     chan struct{}
	joined   sync.WaitGroup // dispatcher, workers, finishers, Close's drain

	policy  atomic.Int32 // 0 = static, 1 = adaptive, 2 = slo
	advisor atomic.Value // advisorBox: SLO shard-width advisor

	mu     sync.Mutex // guards Submit/Close handshake
	closed bool

	liveMu sync.Mutex         // guards live
	live   map[*poolJob][]int // running jobs' shards, for occupancy views

	running     atomic.Int64 // jobs currently occupying a shard
	busy        atomic.Int64 // workers currently bound to a job
	served      atomic.Int64 // jobs finished (any outcome) since pool start
	quarantined atomic.Int64 // jobs failed by a panic (ErrJobPanicked)

	// Pool-level fault streams (nil unless PoolConfig.Faults): admitFI is
	// drawn under p.mu in Submit, shardFI only by the dispatcher.
	admitFI *faults.Injector
	shardFI *faults.Injector
}

// NewPool builds a resident pool and starts its workers; they park until
// the first job arrives.
func NewPool(cfg PoolConfig) *Pool {
	opt := cfg.Options
	if cfg.Workers > 0 {
		opt.Workers = cfg.Workers
	}
	n := opt.WorkersOrDefault()
	maxJobs := cfg.MaxConcurrentJobs
	if maxJobs <= 0 {
		maxJobs = 1
	}
	if maxJobs > n {
		maxJobs = n
	}
	p := &Pool{
		n:        n,
		maxJobs:  maxJobs,
		opt:      opt,
		deques:   make([]deque.WorkDeque, n),
		workers:  make([]*Worker, n),
		wake:     make([]chan shardRun, n),
		src:      cfg.Source,
		finished: make(chan *poolJob, maxJobs),
		quit:     make(chan struct{}),
		live:     make(map[*poolJob][]int),
		admitFI:  cfg.Faults.Admission(),
		shardFI:  cfg.Faults.ShardAlloc(),
	}
	if p.src == nil {
		p.fifo = newFIFO(cfg.QueueCapacity)
		p.src = p.fifo
	}
	p.SetShardPolicy(cfg.ShardPolicy)
	procs := vtime.NewRealProcs(n, opt.Seed)
	for i := 0; i < n; i++ {
		p.deques[i] = newDeque(opt)
		p.workers[i] = &Worker{ID: i, Proc: procs[i], Deque: p.deques[i]}
		p.wake[i] = make(chan shardRun)
	}
	p.joined.Add(n + 1)
	for i := 0; i < n; i++ {
		go p.workerLoop(i)
	}
	go p.dispatch()
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.n }

// MaxConcurrentJobs returns the number of jobs the pool can run at once.
func (p *Pool) MaxConcurrentJobs() int { return p.maxJobs }

// SetShardPolicy switches the shard allocator's sizing policy. Unknown
// values fall back to ShardStatic. Safe to call while jobs are running:
// shards already handed out keep their width, only future allocations are
// affected.
func (p *Pool) SetShardPolicy(pol ShardPolicy) {
	switch pol {
	case ShardAdaptive:
		p.policy.Store(1)
	case ShardSLO:
		p.policy.Store(2)
	default:
		p.policy.Store(0)
	}
}

// ShardPolicy returns the current shard sizing policy.
func (p *Pool) ShardPolicy() ShardPolicy {
	switch p.policy.Load() {
	case 1:
		return ShardAdaptive
	case 2:
		return ShardSLO
	}
	return ShardStatic
}

// ShardAdvisor decides, for the ShardSLO policy, how many concurrent jobs
// the free workers should be split between when the next shard is formed.
// waiting is the number of jobs queued behind the one being placed (the
// source's Len), slots the open job slots, free the free worker count.
// The return value is clamped to [1, slots]; a serving layer typically
// returns 1 (widest shard, fastest drain) while a latency SLO is
// being missed and waiting+1 (the adaptive split) otherwise.
type ShardAdvisor func(waiting, slots, free int) int

// advisorBox keeps atomic.Value's concrete type stable.
type advisorBox struct{ fn ShardAdvisor }

// SetShardAdvisor installs the ShardSLO sizing callback. It is consulted
// only by the dispatcher goroutine, at shard-formation time, and only
// while the policy is ShardSLO; a nil or absent advisor makes ShardSLO
// behave like ShardAdaptive. Safe to call while jobs are running.
func (p *Pool) SetShardAdvisor(fn ShardAdvisor) { p.advisor.Store(advisorBox{fn}) }

// RunningJobs returns the number of jobs currently bound to shards.
func (p *Pool) RunningJobs() int64 { return p.running.Load() }

// BusyWorkers returns the number of workers currently bound to a job.
func (p *Pool) BusyWorkers() int64 { return p.busy.Load() }

// Served returns the number of jobs finished since the pool started.
func (p *Pool) Served() int64 { return p.served.Load() }

// LiveShards returns the worker groups currently bound to running jobs,
// sorted by their first (lowest) global worker id so the view is stable
// across scrapes. Each inner slice is a copy.
func (p *Pool) LiveShards() [][]int {
	p.liveMu.Lock()
	out := make([][]int, 0, len(p.live))
	for _, shard := range p.live {
		s := make([]int, len(shard))
		copy(s, shard)
		out = append(out, s)
	}
	p.liveMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Quarantined returns the number of jobs that failed by a panic in their
// program or engine. Each such job was contained to its own shard: the
// shard's deques were reset and handed back to the allocator, and the pool
// kept serving.
func (p *Pool) Quarantined() int64 { return p.quarantined.Load() }

// Submit enqueues a job on the pool's FIFO without blocking. It returns
// ErrQueueFull when the FIFO is at capacity and ErrPoolClosed after Close.
// The closed check and the enqueue happen under one lock, ordered against
// Close's closed store: once Close has begun, Submit deterministically
// returns ErrPoolClosed, and a job enqueued before that point is either
// run or drained with ErrPoolClosed, never both.
func (p *Pool) Submit(spec JobSpec) (*JobHandle, error) {
	if spec.Prog == nil || spec.Engine == nil {
		return nil, errors.New("wsrt: JobSpec needs Prog and Engine")
	}
	if p.fifo == nil {
		return nil, errors.New("wsrt: Submit on a pool that pulls from a PoolConfig.Source")
	}
	h := &JobHandle{
		started:   make(chan struct{}),
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
	spec.handle = h
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if p.admitFI != nil && p.admitFI.RejectAdmission() {
		// Injected admission saturation: indistinguishable from a full
		// queue, so callers exercise their backpressure handling. The
		// stream is drawn under p.mu, which serialises it.
		return nil, ErrQueueFull
	}
	if !p.fifo.push(spec) {
		return nil, ErrQueueFull
	}
	return h, nil
}

// Close shuts the pool down: the dispatcher stops pulling, running jobs
// finish, every job still in Submit's FIFO is failed with ErrPoolClosed,
// and the workers exit. A PoolConfig.Source is left as it is, for its
// owner to retire. Close blocks until all goroutines have joined and every
// OnDone has returned; it is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.joined.Wait()
		return
	}
	// Close quit under the same lock that orders Submit's closed check:
	// any Submit that observes closed (and any outside observer it
	// unblocks) is guaranteed the dispatcher's shutdown signal is already
	// raised, so a job still queued at that point can only drain. The
	// drain is a joined slot of its own, so a concurrent Close waits for
	// it too.
	p.closed = true
	close(p.quit)
	p.joined.Add(1)
	p.mu.Unlock()
	if p.fifo != nil {
		for spec, ok := p.fifo.Pop(); ok; spec, ok = p.fifo.Pop() {
			p.retire(p.admit(spec), ErrPoolClosed)
		}
	}
	p.joined.Done()
	p.joined.Wait()
}

// dispatch is the pool's coordinator goroutine: while a shard slot is
// open it pulls the next job from the source and binds it to a shard, and
// it reclaims shards as jobs finish. Nothing is taken from the source
// before a shard can be formed for it, so every waiting job stays where
// its owner can still reorder, extract or cancel it.
func (p *Pool) dispatch() {
	defer func() {
		for _, c := range p.wake {
			close(c)
		}
		p.joined.Done()
	}()
	alloc := newShardAlloc(p.n, p.maxJobs)
	for {
		// Prefer shutdown over further admissions once quit is closed.
		select {
		case <-p.quit:
			p.shutdown(alloc)
			return
		default:
		}
		var ready <-chan struct{}
		var retry <-chan time.Time
		if alloc.running < p.maxJobs && len(alloc.free) > 0 {
			if p.shardFI != nil && p.src.Len() > 0 && p.shardFI.StarveShard() {
				// Injected allocator starvation: the job stays in the source
				// as if no shard could be formed. Nothing running may finish
				// to wake the dispatcher, so the fault plane retries on a
				// tick of its own.
				retry = time.After(100 * time.Microsecond)
			} else if spec, ok := p.src.Pop(); ok {
				p.place(alloc, p.admit(spec))
				continue
			} else {
				ready = p.src.Ready()
			}
		}
		select {
		case <-p.quit:
			p.shutdown(alloc)
			return
		case job := <-p.finished:
			p.reclaim(alloc, job)
		case <-ready:
		case <-retry:
		}
	}
}

// admit wraps a job pulled from the source (or drained from the FIFO) in
// its pool-side record.
func (p *Pool) admit(spec JobSpec) *poolJob {
	job := &poolJob{spec: spec, name: spec.Engine.Name(), h: spec.handle, submitted: time.Now()}
	if job.h != nil {
		job.submitted = job.h.submitted
	}
	return job
}

// place binds a pulled job to a freshly allocated shard, or retires it if
// its context was cancelled while it waited. The caller has checked that a
// slot is open, so the allocator always forms a shard.
func (p *Pool) place(alloc *shardAlloc, job *poolJob) {
	if ctx := job.spec.Ctx; ctx != nil && ctx.Err() != nil {
		// Cancelled while queued: never starts, costs the pool nothing. The
		// retirement gets a goroutine of its own to keep OnDone off the
		// dispatcher.
		p.joined.Add(1)
		go func() {
			defer p.joined.Done()
			p.retire(job, context.Cause(ctx))
		}()
		return
	}
	policy := p.ShardPolicy()
	waiting := p.src.Len()
	var shard []int
	if b, ok := p.advisor.Load().(advisorBox); ok && b.fn != nil && policy == ShardSLO {
		shard = alloc.grabClaims(b.fn(waiting, alloc.maxJobs-alloc.running, len(alloc.free)))
	} else {
		shard = alloc.grab(policy, waiting)
	}
	p.startJob(job, shard)
}

// retire finishes a job that never ran (drained at shutdown, or cancelled
// while queued).
func (p *Pool) retire(job *poolJob, err error) {
	res := sched.Result{Engine: job.name, Program: job.spec.Prog.Name()}
	res.Stats.QueueWait = time.Since(job.submitted).Nanoseconds()
	p.served.Add(1)
	job.finish(res, err)
}

// reclaim returns a finished job's shard to the allocator. The served
// counter already ticked in handBack, before the job's handle resolved,
// so Served() never lags a Result() return.
func (p *Pool) reclaim(alloc *shardAlloc, job *poolJob) {
	p.liveMu.Lock()
	delete(p.live, job)
	p.liveMu.Unlock()
	alloc.release(job.shard)
	p.busy.Add(-int64(len(job.shard)))
	p.running.Add(-1)
}

// shutdown waits for the running jobs to finish and reclaims their shards.
// Queued jobs are not the dispatcher's to settle: Close drains Submit's
// FIFO, and an external source's owner retires its own.
func (p *Pool) shutdown(alloc *shardAlloc) {
	for alloc.running > 0 {
		p.reclaim(alloc, <-p.finished)
	}
}

// startJob builds the job's shard-scoped runtime and wakes the shard's
// workers. The runtime's deque slice is exactly the shard's deques, so the
// thief loop's victim set — and with it the need_task/stolen_num
// starvation machinery living in those deques — is confined to the shard
// by construction.
func (p *Pool) startJob(job *poolJob, shard []int) {
	width := len(shard)
	job.shard = shard
	job.started = time.Now()
	job.deques = make([]deque.WorkDeque, width)
	job.workers = make([]*Worker, width)
	for li, gi := range shard {
		job.deques[li] = p.deques[gi]
		job.workers[li] = p.workers[gi]
	}
	policyName := job.spec.StealPolicy
	if policyName == "" {
		policyName = p.opt.StealPolicy
	}
	rt := &Runtime{
		Prog:        job.spec.Prog,
		Costs:       p.opt.CostsOrDefault(),
		N:           width,
		Deques:      job.deques,
		Eng:         job.spec.Engine.NewExec(width, p.opt),
		profile:     job.spec.Profile,
		tracer:      job.spec.Tracer,
		faults:      job.spec.Faults,
		stop:        &sched.Stop{},
		stealPolicy: StealPolicyByName(policyName),
		stealSeed:   stealSeed(p.opt),

		firstSolution: job.spec.FirstSolution || p.opt.FirstSolution,
	}
	if rt.tracer != nil {
		rt.tracer.Init(width, int64(p.opt.MaxStolenNumOrDefault()))
		rt.tracer.SetScope(fmt.Sprintf("%s/%s shard %v", job.name, job.spec.Prog.Name(), shard))
		for li, d := range job.deques {
			d.SetTrace(rt.tracer.DequeHook(li))
		}
	}
	for li, d := range job.deques {
		// Fault hooks are keyed by shard-local index, like trace hooks, so
		// a plan's decisions do not depend on which shard hosts the job.
		if hook := rt.faults.DequeHook(li); hook != nil {
			d.SetFailSteal(hook)
		}
	}
	job.release = sched.WatchContext(job.spec.Ctx, rt.stop)
	if d := job.spec.Deadline; d > 0 {
		job.deadline = time.AfterFunc(d, func() {
			rt.stop.Signal(fmt.Errorf("wsrt: job exceeded its %v run deadline: %w",
				d, context.DeadlineExceeded))
		})
	}
	job.rt = rt
	job.left.Store(int32(width))
	job.settled.Add(1)
	p.liveMu.Lock()
	p.live[job] = shard
	p.liveMu.Unlock()
	p.running.Add(1)
	p.busy.Add(int64(width))
	if h := job.h; h != nil {
		h.shard, h.startAt = shard, job.started
		close(h.started)
	}
	for li, gi := range shard {
		p.wake[gi] <- shardRun{job: job, local: li}
	}
	p.joined.Add(1)
	go p.finishJob(job)
}

// finishJob is the job's finisher goroutine. It runs OnStart, waits
// until the job's last worker has handed the shard back (handBack), and
// then settles the job: its handle resolves and OnDone runs. A callback
// that blocks therefore delays only its own job's settling, never the
// shard's return to the allocator.
func (p *Pool) finishJob(job *poolJob) {
	defer p.joined.Done()
	if job.spec.OnStart != nil {
		job.spec.OnStart()
	}
	job.settled.Wait()
	job.finish(job.res, job.err)
}

// handBack runs on the job's last worker to hit the barrier: it
// finalises the result and hands the shard back to the dispatcher. The
// deque reset is confined to the finishing job's shard — neighbouring
// shards are live and must not be touched — and happens before the shard
// returns to the free set, so the next job bound to these workers starts
// from the same state a fresh deque would.
func (p *Pool) handBack(job *poolJob) {
	job.release()
	if job.deadline != nil {
		job.deadline.Stop()
	}
	rt := job.rt
	st := collectStats(job.workers, job.deques, job.spec.Profile)
	st.QueueWait = job.started.Sub(job.submitted).Nanoseconds()
	if rt.tracer != nil {
		for _, d := range job.deques {
			d.SetTrace(nil)
		}
	}
	if rt.faults != nil {
		for _, d := range job.deques {
			d.SetFailSteal(nil)
		}
	}
	for _, d := range job.deques {
		d.Reset()
	}

	job.res = sched.Result{
		Value:    rt.value.Load(),
		Makespan: time.Since(job.started).Nanoseconds(),
		Workers:  len(job.shard),
		Engine:   job.name,
		Program:  job.spec.Prog.Name(),
		Stats:    st,
		Shard:    job.shard,
	}
	if f := rt.failure.Load(); f != nil {
		job.err = f.err
		if errors.Is(job.err, ErrJobPanicked) {
			// Panic quarantine: the job failed, its shard was reset above
			// and heals by re-entering the allocator like any other.
			p.quarantined.Add(1)
		}
	}
	if job.h != nil {
		job.h.endAt = time.Now()
	}
	p.served.Add(1)
	p.finished <- job
	job.settled.Done()
}

// workerLoop is one resident worker: park on the wake channel, run the
// job, hit the barrier, park again. This is the thief loop's "park between
// jobs instead of exiting". For the job's duration the worker adopts its
// shard-local identity — victim selection, root election (local 0) and
// trace logs are all indexed within the shard's deque slice.
func (p *Pool) workerLoop(i int) {
	defer p.joined.Done()
	w := p.workers[i]
	for run := range p.wake[i] {
		job := run.job
		w.ID = run.local
		w.rt = job.rt
		w.Stats = sched.Stats{}
		w.tr = nil
		if job.rt.tracer != nil {
			w.tr = job.rt.tracer.WorkerLog(run.local)
		}
		w.fi = job.rt.faults.Worker(run.local)
		// The thief is rebuilt per job: its PRNG stream restarts from the
		// pool seed and the worker's shard-local id, so a job's victim
		// sequence does not depend on what ran on this worker before.
		w.thief = job.rt.stealPolicy.NewThief(run.local, job.rt.N, job.rt.stealSeed)
		w.bindProg()
		w.runJob(true)
		w.rt = nil
		w.prog = nil
		// The SYNCHED workspace pool holds program-typed workspaces; the
		// next job bound to this worker may run a different program, and
		// ClonePooled must never hand it a leftover (CopyFrom would panic
		// on the type mismatch). Frames are program-agnostic — their
		// free-list stays resident across jobs.
		w.DropWorkspacePool()
		if job.left.Add(-1) == 0 {
			p.handBack(job)
		}
	}
}
