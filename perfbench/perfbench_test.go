package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONIsCurrent pins BENCHMARK.json to the specs in this
// package. Regenerate it from the repository root with
//
//	bash perfbench/run.sh --describe > BENCHMARK.json
func TestBenchmarkJSONIsCurrent(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `perfbench --describe`:\n%s", want)
	}
}

// TestShortRuns runs every workload of BENCHMARK.json briefly, untraced
// and traced, and checks that the run is correct, that its coverage
// check passed, and that it reports exactly the declared metrics with
// their declared units.
func TestShortRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	units := func(traced bool) map[string]string {
		m := map[string]string{}
		if traced {
			for _, x := range file.PerLayer {
				m[x.Name] = x.Unit
			}
		} else {
			for _, x := range file.EndToEnd {
				m[x.Name] = x.Unit
			}
		}
		return m
	}
	for _, wj := range file.Workloads {
		spec, ok := workloadByName(wj.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wj.Name)
		}
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := runWorkload(&out, spec, 7, 2*time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					spec.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := units(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", spec.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", spec.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", spec.name, traced, name, m.Unit, unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", spec.name, name, m.Value)
				}
			}
			if !bytes.Contains(out.Bytes(), []byte("host: nproc")) {
				t.Errorf("%s traced=%v: report lacks the host context line", spec.name, traced)
			}
		}
	}
}
