// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints a report followed, on its last
// line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced stretches and reports the per-layer
// ones, writing every span to .bench_build/. Run it from the repository
// root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload solve --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// workDir holds everything a run writes: journals and span dumps.
const workDir = ".bench_build"

// workload is one set-up instance of a workload.
type workload interface {
	// run measures for d; tr nil means untraced.
	run(d time.Duration, tr *tracer)
	// summary folds every stretch measured with (traced) or without
	// tracing. Attempted and failed operations count all stretches.
	summary(traced bool) summary
	close()
}

// summary is one workload's measurement.
type summary struct {
	attempted int
	fails     failures
	ops       int // operations behind the timing figures
	opsPerS   float64
	p50, tail float64 // ms
	tailPct   float64 // the percentile tail is, with ≥10 samples beyond it
	xSerial   float64
	layer     map[string]float64
	notes     []string // the workload's figures in its own units
	coverage  string   // non-empty: the layer the workload exists for did no work
}

// result is the JSON object on the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: solve, serve-small, cluster-burst, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	desc := flag.Bool("describe", false, "print BENCHMARK.json as this program defines it, and exit")
	flag.Parse()
	if *desc {
		b, err := describe()
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(b); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	specs := workloads
	if *name != "all" {
		spec, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (want solve, serve-small, cluster-burst or all)", *name))
		}
		specs = []workloadSpec{spec}
	}
	for _, spec := range specs {
		res, err := runWorkload(os.Stdout, spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", spec.name, err))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setupWorkload builds one instance of the named workload.
func setupWorkload(name string, seed int64, dirs [2]string, tr *tracer) (workload, error) {
	switch name {
	case "solve":
		return setupSolve(seed, tr)
	case "serve-small":
		return setupServeSmall(seed, tr)
	case "cluster-burst":
		return setupClusterBurst(seed, dirs, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload sets the workload up setupReps times, measures the last
// set-up for d, writes the report to out and returns the result.
func runWorkload(out io.Writer, spec workloadSpec, seed int64, d time.Duration, traced bool) (result, error) {
	fmt.Fprintf(out, "workload %s  seed %d  measure %s  traced %v\n", spec.name, seed, d, traced)
	fmt.Fprintf(out, "  why: %s\n  loads: %s\n  bypasses: %s\n", spec.why, spec.loads, spec.bypasses)
	par := parallelX()
	fmt.Fprintf(out, "host: nproc %d  GOMAXPROCS %d  %s  2-goroutine spin throughput %.3fx one goroutine\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), par)

	rss := startRSS(100 * time.Millisecond)
	defer rss.finish()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(workDir, "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	var dirs [2]string
	if spec.name == "cluster-burst" {
		if dirs, err = prefillCluster(seed, tmp); err != nil {
			return result{}, err
		}
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		w, err = setupWorkload(spec.name, seed, dirs, tr)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			w.close()
		}
	}
	defer w.close()

	var s summary
	if !traced {
		w.run(d, nil)
		s = w.summary(false)
	} else {
		// Alternate untraced and traced stretches, so the tracing
		// overhead is measured against the same process and set-up.
		const stretches = 4
		for i := 0; i < stretches; i++ {
			if i%2 == 0 {
				w.run(d/stretches, nil)
			} else {
				w.run(d/stretches, tr)
			}
		}
		s = w.summary(true)
		u := w.summary(false)
		s.layer["trace.overhead_p50"] = s.p50 / u.p50
		s.layer["host.parallel_x"] = par
		for mod, lt := range tr.layers() {
			if s.ops > 0 {
				s.layer["self."+mod+"_ms"] = lt.self / float64(s.ops)
				s.layer["wait."+mod+"_ms"] = lt.wait / float64(s.ops)
			}
		}
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", spec.name, seed))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	rssMB := rss.finish()

	res := result{Attempted: s.attempted, Failed: s.fails.n, Metrics: map[string]metricValue{}}
	values := map[string]float64{
		"setup_s":   median(setups),
		"rss_mb":    rssMB,
		"ops_per_s": s.opsPerS,
		"p50_ms":    s.p50,
		"tail_ms":   s.tail,
		"x_serial":  s.xSerial,
	}
	list := endToEnd
	if traced {
		list, values = perLayer, s.layer
	}
	var bad []string
	for _, m := range list {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, m.name)
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}

	for _, n := range s.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	fmt.Fprintf(out, "set-up %d times: %s s (median reported)\n", len(setups), joinFloats(setups))
	fmt.Fprintf(out, "operations %d  tail is p%g  attempted %d  failed %d\n", s.ops, s.tailPct, s.attempted, s.fails.n)
	for _, f := range s.fails.first {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	for _, m := range list {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	res.Correct = s.fails.n == 0 && s.coverage == "" && len(bad) == 0
	if s.coverage != "" {
		fmt.Fprintf(out, "  COVERAGE: %s\n", s.coverage)
	}
	if len(bad) > 0 {
		fmt.Fprintf(out, "  NOT A NUMBER: %s\n", strings.Join(bad, ", "))
	}
	return res, nil
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// rssSampler samples the process's resident set at a fixed interval.
// The median of the samples is steadier than the peak, which depends on
// where the garbage collector's cycles happen to fall.
type rssSampler struct {
	stop, done chan struct{}
	once       sync.Once
	samples    []float64 // MB
}

func startRSS(every time.Duration) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			r.samples = append(r.samples, residentMB())
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the median sample. Calling it
// again is harmless.
func (r *rssSampler) finish() float64 {
	r.once.Do(func() { close(r.stop) })
	<-r.done
	return median(r.samples)
}

// residentMB is the current resident set size in MB (from
// /proc/self/statm; the Go runtime's own view of mapped memory where
// that file does not exist).
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// parallelX measures the host's parallel ceiling: the throughput of two
// goroutines spinning on private counters over that of one (median of 3).
func parallelX() float64 {
	const iters = 20_000_000
	spin := func() {
		x := uint64(1)
		for i := 0; i < iters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink.Add(x & 1)
	}
	var xs []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		spin()
		one := time.Since(t0)
		t0 = time.Now()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				spin()
			}()
		}
		wg.Wait()
		two := time.Since(t0)
		xs = append(xs, 2*one.Seconds()/two.Seconds())
	}
	return median(xs)
}

// sink keeps the spin loops from being optimised away.
var sink atomic.Uint64
