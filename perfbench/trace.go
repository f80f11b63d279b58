package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a module of the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // line number of the enclosing span in the dump; 0 = none
	ID     int64  `json:"id"`     // one id per job, burst or solve instance
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its handle (index+1, so 0 means "none"
// and can be passed as a parent).
func (t *tracer) start(name string, parent int, id int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	h := len(t.spans)
	t.mu.Unlock()
	return h
}

func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[h-1].End = now
	t.mu.Unlock()
}

// layerTime is one module's share of the traced run, in ms.
type layerTime struct {
	self float64 // span time not covered by child spans
	wait float64 // time in spans named "<module>.wait"
}

// module is the part of a span name before the first '.' — the layer the
// span was opened around.
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layers folds the spans into per-module self and waiting time. A span's
// self time is its duration minus the union of its children's intervals.
func (t *tracer) layers() map[string]layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[i+1], s.Start, s.End)
		lt := out[module(s.Name)]
		if strings.Contains(s.Name, ".wait") {
			lt.wait += float64(s.End-s.Start) / 1e6
		} else {
			lt.self += float64(self) / 1e6
		}
		out[module(s.Name)] = lt
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write dumps every span as JSON lines to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
