// The QoS admission plane: tenant identity, priority classes, per-tenant
// quotas and token-bucket rate limits, and the weighted-fair queue the
// service's pool pulls its jobs from.
//
// Admission is two-stage. Submit performs the synchronous, caller-visible
// checks (rate limit, quota, global capacity — each a 429 with its own
// Retry-After) and enqueues the job into the weighted-fair queue. The
// queue is the pool's wsrt.Source: whenever a shard slot opens, the pool's
// dispatcher pops the next job in QoS order, so nothing is staged ahead of
// time. Every job that has not started waits where priority still
// matters, and a late-arriving interactive job overtakes queued batch work
// instead of sitting behind it in a FIFO. A queued job whose context fires
// (DELETE, or its deadline) leaves the queue at once.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"adaptivetc/internal/wsrt"
)

// Priority is a job's QoS class. Classes share the admission queue under
// smooth weighted round-robin: with the default weights an interactive
// job is picked 16× as often as a background one when both classes have
// work queued, but no class is ever starved outright.
type Priority string

const (
	// PriorityInteractive: latency-sensitive, user-facing work.
	PriorityInteractive Priority = "interactive"
	// PriorityBatch: the default class for unmarked submissions.
	PriorityBatch Priority = "batch"
	// PriorityBackground: best-effort work that yields to everything else.
	PriorityBackground Priority = "background"
)

// priorityOrder fixes a deterministic iteration order for the scheduler
// and for metrics snapshots.
var priorityOrder = []Priority{PriorityInteractive, PriorityBatch, PriorityBackground}

// priorityWeights are the admission shares. They are deliberately not
// configurable per request — a tenant picks a class, the operator owns
// the ratios.
var priorityWeights = map[Priority]int{
	PriorityInteractive: 16,
	PriorityBatch:       4,
	PriorityBackground:  1,
}

// ParsePriority maps a request's priority string to its class. Empty
// means PriorityBatch, so unmarked traffic neither jumps the interactive
// queue nor falls behind background work.
func ParsePriority(s string) (Priority, error) {
	switch Priority(s) {
	case "":
		return PriorityBatch, nil
	case PriorityInteractive, PriorityBatch, PriorityBackground:
		return Priority(s), nil
	}
	return "", fmt.Errorf("serve: unknown priority %q (have %v)", s, priorityOrder)
}

// DefaultTenant is the identity assumed for requests that carry none.
const DefaultTenant = "default"

// ErrDraining reports a submission to a service that is draining: it is
// finishing its backlog and will not accept new jobs (HTTP 503 upstream).
var ErrDraining = errors.New("serve: draining: not accepting new jobs")

// RejectionError is a per-tenant admission rejection (HTTP 429 upstream).
// RetryAfter is the tenant-specific back-off hint: for a rate limit, the
// time until the token bucket refills a whole token; for a quota, a flat
// second, since quota headroom returns only when one of the tenant's own
// jobs finishes. A cluster-mode capacity rejection (Reason "capacity")
// also carries this type so the client sees *this* node's Retry-After
// hint — never a peer's — and wraps wsrt.ErrQueueFull for errors.Is.
type RejectionError struct {
	Tenant     string
	Reason     string // "rate-limit", "quota" or "capacity"
	RetryAfter time.Duration
	cause      error
}

func (e *RejectionError) Error() string {
	return fmt.Sprintf("serve: tenant %q rejected (%s), retry after %v", e.Tenant, e.Reason, e.RetryAfter)
}

// Unwrap exposes the underlying sentinel (wsrt.ErrQueueFull for capacity
// rejections), keeping existing errors.Is call sites working.
func (e *RejectionError) Unwrap() error { return e.cause }

// TenantLimits bounds one tenant's use of the service. The zero value is
// unlimited.
type TenantLimits struct {
	// MaxInFlight caps the tenant's queued+running jobs; 0 is unlimited.
	MaxInFlight int
	// RatePerSec is the tenant's token-bucket refill rate in submissions
	// per second; 0 is unlimited.
	RatePerSec float64
	// Burst is the bucket depth; 0 means max(1, ceil(RatePerSec)).
	Burst int
}

// tokenBucket is a standard refill-on-access token bucket.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables the bucket
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(lim TenantLimits) *tokenBucket {
	burst := float64(lim.Burst)
	if burst <= 0 {
		burst = math.Max(1, math.Ceil(lim.RatePerSec))
	}
	return &tokenBucket{rate: lim.RatePerSec, burst: burst}
}

// take consumes one token if available; otherwise it reports how long
// until a whole token will have refilled (the Retry-After hint).
func (b *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = b.burst
	} else {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// admItem is one queued submission: the job record plus the spec the
// pool runs.
type admItem struct {
	job  *Job
	spec wsrt.JobSpec
	// unwatch stops the cancellation watch push arms; it reports false
	// when the watch has already fired. Set and called under wfq.mu.
	unwatch func() bool
	popped  time.Time // when the pool pulled the job
}

// wfqTenant is one tenant's FIFO within a class.
type wfqTenant struct {
	name  string
	items []*admItem
}

// wfqClass is one priority class: per-tenant FIFOs drained round-robin,
// so within a class every tenant gets an equal share regardless of how
// many jobs each has queued. A tenant is in rr exactly while its FIFO is
// non-empty; an idle tenant keeps only its entry in tens, so its next job
// reuses the FIFO instead of allocating one.
type wfqClass struct {
	weight int
	credit int // smooth-weighted-round-robin state
	tens   map[string]*wfqTenant
	rr     []*wfqTenant // tenants with queued work, round-robin order
	rrNext int
	size   int
}

// push appends it to its tenant's FIFO, or puts it back at the head
// (front) when an extracted job returns, so per-tenant order survives.
func (c *wfqClass) push(it *admItem, front bool) {
	t := c.tens[it.job.tenant]
	if t == nil {
		t = &wfqTenant{name: it.job.tenant}
		c.tens[t.name] = t
	}
	if len(t.items) == 0 {
		c.rr = append(c.rr, t)
	}
	if front {
		t.items = append([]*admItem{it}, t.items...)
	} else {
		t.items = append(t.items, it)
	}
	c.size++
}

// take removes the i-th item of the tenant at rr[ti]. A tenant whose FIFO
// empties leaves the ring and re-enters on its next push.
func (c *wfqClass) take(ti, i int) *admItem {
	t := c.rr[ti]
	it := t.items[i]
	t.items = slices.Delete(t.items, i, i+1)
	c.size--
	if len(t.items) > 0 {
		return it
	}
	c.rr = append(c.rr[:ti], c.rr[ti+1:]...)
	if ti < c.rrNext {
		c.rrNext--
	}
	if len(c.rr) == 0 {
		c.rrNext = 0
	} else {
		c.rrNext %= len(c.rr)
	}
	return it
}

// pop removes the head of the next tenant in round-robin order.
func (c *wfqClass) pop() *admItem {
	ti := c.rrNext
	left := len(c.rr[ti].items) > 1
	it := c.take(ti, 0)
	if left {
		c.rrNext = (ti + 1) % len(c.rr)
	}
	return it
}

// popBack removes the item that would be served last within the class:
// the tail of the last tenant in the ring.
func (c *wfqClass) popBack() *admItem {
	ti := len(c.rr) - 1
	return c.take(ti, len(c.rr[ti].items)-1)
}

// remove takes it out of the class wherever it waits; false if it is not
// queued here.
func (c *wfqClass) remove(it *admItem) bool {
	for ti, t := range c.rr {
		if t.name != it.job.tenant {
			continue
		}
		for i, x := range t.items {
			if x == it {
				c.take(ti, i)
				return true
			}
		}
		return false
	}
	return false
}

// wfq is the weighted-fair admission queue: one wfqClass per priority,
// drained by smooth weighted round-robin. Producers are the Submit path
// and the cluster's requeue; the consumer is the pool's dispatcher, which
// pulls through the wsrt.Source methods.
type wfq struct {
	mu      sync.Mutex
	classes map[Priority]*wfqClass
	size    int
	closed  bool
	ready   chan struct{}

	// cancelled retires an item whose context fired while it was queued;
	// retiring counts those retirements still running, so close can wait
	// for them.
	cancelled func(*admItem)
	retiring  sync.WaitGroup
}

func newWFQ(cancelled func(*admItem)) *wfq {
	q := &wfq{
		classes:   make(map[Priority]*wfqClass, len(priorityOrder)),
		ready:     make(chan struct{}, 1),
		cancelled: cancelled,
	}
	for _, p := range priorityOrder {
		q.classes[p] = &wfqClass{weight: priorityWeights[p], tens: make(map[string]*wfqTenant)}
	}
	return q
}

// push queues it (at the head of its tenant's FIFO when front) and arms
// its cancellation watch: if the job's context fires while it still
// waits, it leaves the queue and is retired there and then, instead of
// when a slot next opens. push reports false once the queue is closed.
func (q *wfq) push(it *admItem, front bool) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.classes[it.job.prio].push(it, front)
	q.size++
	it.unwatch = context.AfterFunc(it.spec.Ctx, func() { q.cancel(it) })
	q.mu.Unlock()
	select {
	case q.ready <- struct{}{}:
	default:
	}
	return true
}

// cancel is the cancellation watch: whichever of it and a pop, extract or
// close takes the item out of the queue under q.mu settles it.
func (q *wfq) cancel(it *admItem) {
	q.mu.Lock()
	ok := q.classes[it.job.prio].remove(it)
	if ok {
		q.size--
		q.retiring.Add(1)
	}
	q.mu.Unlock()
	if ok {
		q.cancelled(it)
		q.retiring.Done()
	}
}

// Pop hands the pool its next job (wsrt.Source).
func (q *wfq) Pop() (wsrt.JobSpec, bool) {
	if it := q.pop(); it != nil {
		return it.spec, true
	}
	return wsrt.JobSpec{}, false
}

// pop removes the next item, choosing the class by smooth weighted
// round-robin and the tenant within it by plain round-robin; nil when the
// queue is empty. An item whose watch has already fired is handed out all
// the same: its context is done, so the pool retires it unstarted.
func (q *wfq) pop() *admItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return nil
	}
	var best *wfqClass
	total := 0
	for _, p := range priorityOrder {
		c := q.classes[p]
		if c.size == 0 {
			continue
		}
		c.credit += c.weight
		total += c.weight
		if best == nil || c.credit > best.credit {
			best = c
		}
	}
	best.credit -= total
	q.size--
	it := best.pop()
	it.unwatch()
	it.popped = time.Now()
	return it
}

// Len reports the jobs waiting in the queue (wsrt.Source).
func (q *wfq) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Ready receives after a push (wsrt.Source).
func (q *wfq) Ready() <-chan struct{} { return q.ready }

// extractBack removes up to max items in reverse service order (lowest
// class first, tenant-FIFO tails first). The cluster tier extracts here —
// shedding the work that would wait longest keeps a forward from stealing
// an interactive job out from under its SLO. An empty queue returns nil.
func (q *wfq) extractBack(max int) []*admItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*admItem
	for i := len(priorityOrder) - 1; i >= 0 && len(out) < max; i-- {
		c := q.classes[priorityOrder[i]]
		for c.size > 0 && len(out) < max {
			it := c.popBack()
			it.unwatch()
			q.size--
			out = append(out, it)
		}
	}
	return out
}

// close empties the queue for good: later pushes fail, and the items
// still queued are returned for the owner to retire, once every
// cancellation retirement already under way has finished.
func (q *wfq) close() []*admItem {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	out := q.extractBack(q.Len())
	q.retiring.Wait()
	return out
}
