// Programs-as-data: the service side of the DSL program cache and the
// persistent job journal. POST /programs lands here (compile, cache,
// journal), job lifecycle transitions are journaled from service.go via
// the journal* helpers, and recover() materializes what a restart found
// in the store — terminal results served again, never-started jobs
// re-queued, mid-run jobs marked aborted-by-restart, programs
// re-compiled from their persisted canonical source.
package serve

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"time"

	"adaptivetc/internal/jobstore"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/sched"
)

// ErrAbortedByRestart is the terminal error recovery records on jobs that
// were mid-run when the server died: their partial work is gone (the pool
// holds no persistent state) and re-running silently would double-count
// side effects the client may have taken — resubmitting is the client's
// call.
var ErrAbortedByRestart = errors.New("serve: job aborted by server restart")

// PutProgram compiles and caches a DSL program, journaling it (durably)
// when it is new so a restart recovers the cache. Compile failures are
// position-annotated *lang.Error values.
func (s *Service) PutProgram(name, src string) (progstore.Meta, bool, error) {
	meta, created, err := s.programs.Put(name, src)
	if err != nil {
		return progstore.Meta{}, false, err
	}
	if created && s.journal != nil {
		_, canonical, _ := s.programs.Get(meta.Hash)
		if jerr := s.journal.AppendSync(&jobstore.Record{
			T: jobstore.TProgram, Hash: meta.Hash, Name: meta.Name, Source: canonical,
		}); jerr != nil {
			return progstore.Meta{}, false, jerr
		}
	}
	return meta, created, nil
}

// GetProgram returns a cached program's metadata and canonical source.
func (s *Service) GetProgram(hash string) (progstore.Meta, string, bool) {
	return s.programs.Get(hash)
}

// DeleteProgram evicts a cached program and journals the deletion.
func (s *Service) DeleteProgram(hash string) bool {
	if !s.programs.Delete(hash) {
		return false
	}
	if s.journal != nil {
		_ = s.journal.AppendSync(&jobstore.Record{T: jobstore.TProgDel, Hash: hash})
	}
	return true
}

// Programs lists the cached programs, most recently used first.
func (s *Service) Programs() []progstore.Meta { return s.programs.List() }

// journalSubmit records an admitted job durably: once the client's 202 is
// out, a restart must re-queue (or have finished) the job, never lose it.
func (s *Service) journalSubmit(job *Job) {
	if s.journal == nil {
		return
	}
	req, err := json.Marshal(job.Req)
	if err != nil {
		return
	}
	_ = s.journal.AppendSync(&jobstore.Record{T: jobstore.TSubmit, ID: job.ID, Req: req})
}

// journalStart records a job entering execution. Async on purpose: the
// record only affects how a crash classifies the job (aborted-by-restart
// versus re-queued), and programs are side-effect-free, so the tiny
// window where a started job could be re-run after a crash is safe —
// while an fsync here would serialize every job start.
func (s *Service) journalStart(job *Job) {
	if s.journal == nil {
		return
	}
	_ = s.journal.Append(&jobstore.Record{T: jobstore.TStart, ID: job.ID})
}

// journalDone records a job's terminal outcome durably; finalize calls it
// before publishing the state (acknowledge ⇒ durable).
func (s *Service) journalDone(job *Job, state State, res sched.Result, err error) {
	if s.journal == nil {
		return
	}
	rec := &jobstore.Record{
		T: jobstore.TDone, ID: job.ID, State: string(state),
		Value: res.Value, MakespanNS: res.Makespan,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	_ = s.journal.AppendSync(rec)
}

// recover materializes the journal's recovered state. Programs first (a
// re-queued job may reference one by hash), then jobs: terminal records
// become served results, submit-only jobs re-enter the queue with their
// IDs preserved, and submit+start jobs — mid-run at the crash — become
// failed with ErrAbortedByRestart, journaled terminal so the next restart
// recovers them directly.
func (s *Service) recover(rec *jobstore.Recovery) {
	if rec == nil {
		return
	}
	for _, p := range rec.Programs {
		if _, err := s.programs.Restore(p.Name, p.Source); err == nil {
			s.recoveredPrograms.Add(1)
		}
	}
	// Resume job IDs past everything recovered, so new submissions never
	// collide with a journaled ID.
	maxID := int64(0)
	for _, j := range rec.Jobs {
		if n, err := strconv.ParseInt(strings.TrimPrefix(j.ID, "j"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
	}
	s.nextID.Store(maxID)

	for _, j := range rec.Jobs {
		var req Request
		if err := json.Unmarshal(j.Req, &req); err != nil {
			continue // unreadable request: nothing can be done with it
		}
		switch {
		case j.Done:
			s.materializeRecovered(j, req, State(j.State), nil)
			s.recoveredTerminal.Add(1)
		case j.Started:
			s.materializeRecovered(j, req, StateFailed, ErrAbortedByRestart)
			s.recoveredAborted.Add(1)
			if s.journal != nil {
				_ = s.journal.Append(&jobstore.Record{
					T: jobstore.TDone, ID: j.ID, State: string(StateFailed),
					Err: ErrAbortedByRestart.Error(),
				})
			}
		default:
			if s.resubmitRecovered(j.ID, req) {
				s.recoveredRequeued.Add(1)
			}
		}
	}
}

// materializeRecovered installs a terminal job record reconstructed from
// the journal: pollable via GET /jobs/{id}, counted only in the recovery
// metrics (the submit/complete counters describe this process's work).
func (s *Service) materializeRecovered(j *jobstore.JobState, req Request, state State, errv error) {
	prio, perr := ParsePriority(req.Priority)
	if perr != nil {
		prio = PriorityBatch
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	job := &Job{
		ID:      j.ID,
		Req:     req,
		Created: time.Now(),
		tenant:  tenant,
		prio:    prio,
		cancel:  func(error) {}, // terminal: nothing left to cancel
		done:    make(chan struct{}),
		state:   state,
	}
	job.res = sched.Result{Value: j.Value, Makespan: j.MakespanNS, Program: req.Program, Engine: req.Engine}
	if errv != nil {
		job.err = errv
	} else if j.Err != "" {
		job.err = errors.New(j.Err)
	}
	close(job.done)
	s.mu.Lock()
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()
}

// resubmitRecovered re-queues a journaled job that never started, with
// its ID preserved. Admission control is deliberately bypassed: the job
// was already admitted (and its submit journaled) before the crash;
// bouncing it now off a quota would turn an acknowledged submission into
// a silent loss. Build failures (program gone from the registry, DSL
// hash unrecoverable) settle the job as failed instead.
func (s *Service) resubmitRecovered(id string, req Request) bool {
	it, err := s.buildJob(req)
	if err != nil {
		s.materializeRecovered(&jobstore.JobState{ID: id}, req, StateFailed, err)
		if s.journal != nil {
			_ = s.journal.Append(&jobstore.Record{
				T: jobstore.TDone, ID: id, State: string(StateFailed), Err: err.Error(),
			})
		}
		return false
	}
	job := it.job
	job.ID = id // preserve the journaled identity; the minted one is discarded
	ts := s.tenant(job.tenant)
	cls := s.classes[job.prio]

	s.mu.Lock()
	s.jobs[job.ID] = job
	s.waiting.Add(1)
	s.inflight.Add(1)
	ts.inflight.Add(1)
	ts.queued.Add(1)
	cls.queued.Add(1)
	s.mu.Unlock()
	// No journalSubmit: the original submit record is already in the log,
	// and recovery folds duplicates first-submission-wins anyway.
	s.enqueue(it, false)
	return true
}

// RecoveryStats is the restart-recovery summary exposed in Metrics.
type RecoveryStats struct {
	Terminal int64 `json:"terminal"`
	Requeued int64 `json:"requeued"`
	Aborted  int64 `json:"aborted"`
	Programs int64 `json:"programs"`
}
