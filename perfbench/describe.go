package main

import "encoding/json"

// runSeconds is how long one run declared in BENCHMARK.json measures.
const runSeconds = 20

// benchmarkFile is BENCHMARK.json, the benchmark's declaration: the
// command that runs it, its workloads and its metrics.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []endToEndJSON `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// describe renders BENCHMARK.json from the specs in this package, so the
// file and the program cannot disagree (`perfbench --describe`).
func describe() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, endToEndJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, perLayerJSON{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
