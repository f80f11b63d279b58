package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"adaptivetc/internal/lang"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/registry"
)

// ProgramStatus is the JSON view of one cached DSL program. Source is
// the canonical form and is only populated by GET /programs/{hash}.
type ProgramStatus struct {
	progstore.Meta
	Source string `json:"source,omitempty"`
}

// JobStatus is the JSON view of one job (POST /jobs and GET /jobs/{id}).
type JobStatus struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	Program string `json:"program,omitempty"`
	// ProgramHash identifies a DSL job's cached program (set instead of
	// Program for program_hash submissions).
	ProgramHash string    `json:"program_hash,omitempty"`
	Engine      string    `json:"engine"`
	Tenant      string    `json:"tenant"`
	Priority    Priority  `json:"priority"`
	Created     time.Time `json:"created"`

	// Cluster fields: Origin is the peer that forwarded the job here;
	// ForwardedTo/RemoteID point at the peer a forwarded job went to.
	Origin      string `json:"origin,omitempty"`
	ForwardedTo string `json:"forwarded_to,omitempty"`
	RemoteID    string `json:"remote_id,omitempty"`

	// Terminal-state fields.
	Value       *int64  `json:"value,omitempty"`
	Error       string  `json:"error,omitempty"`
	MakespanMS  float64 `json:"makespan_ms,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	Violations  string  `json:"invariant_violations,omitempty"`
	// Shard is the worker group the job ran on (absent until terminal, and
	// for jobs that never started).
	Shard []int `json:"shard,omitempty"`

	Stats *sched.Stats `json:"stats,omitempty"`
}

// status renders j for the API.
func status(j *Job) JobStatus {
	st, res, err := j.Snapshot()
	eng := j.Req.Engine
	if eng == "" {
		eng = "adaptivetc"
	}
	out := JobStatus{
		ID:          j.ID,
		State:       st,
		Program:     j.Req.Program,
		ProgramHash: j.Req.ProgramHash,
		Engine:      eng,
		Tenant:      j.tenant,
		Priority:    j.prio,
		Created:     j.Created,
		Origin:      j.origin,
	}
	j.mu.Lock()
	out.ForwardedTo, out.RemoteID = j.remoteNode, j.remoteID
	j.mu.Unlock()
	switch st {
	case StateQueued, StateRunning, StateForwarded:
		return out
	}
	if err != nil {
		out.Error = err.Error()
	}
	if st == StateDone {
		v := res.Value
		out.Value = &v
	}
	out.MakespanMS = float64(res.Makespan) / 1e6
	out.QueueWaitMS = float64(res.Stats.QueueWait) / 1e6
	out.Shard = res.Shard
	stats := res.Stats
	out.Stats = &stats
	if viol := j.Violations(); viol != nil {
		out.Violations = viol.Error()
	}
	return out
}

// NewMux returns the service's HTTP API:
//
//	POST   /jobs       submit (Request body; X-Tenant header overrides
//	                   req.Tenant) → 202 JobStatus; 429 + Retry-After on a
//	                   full queue, tenant rate limit, or tenant quota; 503
//	                   while draining or closed; 413 for a body over
//	                   MaxBodyBytes (as for every POST)
//	GET    /jobs/{id}  status and, once terminal, result → JobStatus
//	DELETE /jobs/{id}  cancel → 202 JobStatus
//	GET    /metrics    service counters → Metrics
//	GET    /catalog    available programs and engines
//	GET    /healthz    liveness: 200 while the process serves HTTP
//	GET    /readyz     readiness: 200 until Drain/Close, then 503
//
// Programs as data (the DSL compile cache):
//
//	POST   /programs        {"name","source"} → 201 ProgramStatus on first
//	                        submission, 200 for a program already cached
//	                        under the same content hash; 400 with
//	                        {"error","line","col"} on a compile error
//	GET    /programs        cached programs, most recently used first
//	GET    /programs/{hash} metadata + canonical source → ProgramStatus
//	DELETE /programs/{hash} evict → 200; 404 unknown
//
// A cached program runs via POST /jobs with "program_hash" in place of
// "program"; engine, steal_policy, tenant, priority, timeout_ms and the
// n/m size knobs apply identically, and "first_solution": true selects
// first-solution mode.
func NewMux(s *Service) *http.ServeMux {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	writeErr := func(w http.ResponseWriter, code int, err error) {
		// Compile diagnostics keep their source position in the payload.
		var le *lang.Error
		if errors.As(err, &le) {
			writeJSON(w, code, map[string]any{"error": le.Error(), "line": le.Line, "col": le.Col})
			return
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if code, err := DecodeBody(w, r, &req); err != nil {
			writeErr(w, code, err)
			return
		}
		if t := r.Header.Get("X-Tenant"); t != "" {
			req.Tenant = t
		}
		job, err := s.Submit(req)
		var rej *RejectionError
		switch {
		case errors.As(err, &rej):
			w.Header().Set("Retry-After", retryAfterSeconds(rej.RetryAfter))
			writeErr(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, wsrt.ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, ErrDraining), errors.Is(err, wsrt.ErrPoolClosed):
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, status(job))
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("serve: no such job"))
			return
		}
		writeJSON(w, http.StatusOK, status(job))
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Cancel(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("serve: no such job"))
			return
		}
		writeJSON(w, http.StatusAccepted, status(job))
	})

	mux.HandleFunc("POST /programs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name   string `json:"name"`
			Source string `json:"source"`
		}
		if code, err := DecodeBody(w, r, &req); err != nil {
			writeErr(w, code, err)
			return
		}
		if req.Source == "" {
			writeErr(w, http.StatusBadRequest, errors.New("serve: empty program source"))
			return
		}
		meta, created, err := s.PutProgram(req.Name, req.Source)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		writeJSON(w, code, ProgramStatus{Meta: meta})
	})

	mux.HandleFunc("GET /programs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"programs": s.Programs()})
	})

	mux.HandleFunc("GET /programs/{hash}", func(w http.ResponseWriter, r *http.Request) {
		meta, src, ok := s.GetProgram(r.PathValue("hash"))
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("serve: no such program"))
			return
		}
		writeJSON(w, http.StatusOK, ProgramStatus{Meta: meta, Source: src})
	})

	mux.HandleFunc("DELETE /programs/{hash}", func(w http.ResponseWriter, r *http.Request) {
		if !s.DeleteProgram(r.PathValue("hash")) {
			writeErr(w, http.StatusNotFound, errors.New("serve: no such program"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})

	mux.HandleFunc("GET /catalog", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"programs":     registry.Names(),
			"engines":      EngineNames(),
			"dsl_programs": s.Programs(),
		})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})

	return mux
}

// MaxBodyBytes caps every JSON request body the HTTP API reads: far above
// any job request or DSL program, far below what could exhaust memory.
const MaxBodyBytes = 1 << 20

// DecodeBody decodes r's JSON body into v, reading at most MaxBodyBytes.
// On failure it returns the status to reply with: 413 for an oversized
// body, 400 for anything else.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 — the header has no sub-second form.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
