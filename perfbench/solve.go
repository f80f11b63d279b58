package main

import (
	"fmt"
	"math/rand"
	"time"

	"adaptivetc"
	"adaptivetc/problems/fib"
	"adaptivetc/problems/nqueens"
)

// solveProgram is one member of the solve mix.
type solveProgram struct {
	name   string // as the registry spells it
	n      int
	build  func() (adaptivetc.Program, error)
	oracle int64 // serial value, computed at set-up
}

func (p *solveProgram) label() string { return fmt.Sprintf("%s(%d)", p.name, p.n) }

// dslN is the size of atc-nqueens, and of the nqueens-array entry that
// dsl_slowdown compares it with.
const dslN = 9

// solveMix is the fixed program mix of the solve workload. fib has no
// workspace; nqueens-array copies one on every real task; atc-nqueens is
// the same search through the DSL interpreter, at the same n as one of
// the native nqueens-array entries so dsl_slowdown compares like with like.
func solveMix() []*solveProgram {
	src := adaptivetc.ATCSources()["nqueens"]
	return []*solveProgram{
		{name: "fib", n: 24, build: func() (adaptivetc.Program, error) { return fib.New(24), nil }},
		{name: "nqueens-array", n: 10, build: func() (adaptivetc.Program, error) { return nqueens.NewArray(10), nil }},
		{name: "nqueens-array", n: dslN, build: func() (adaptivetc.Program, error) { return nqueens.NewArray(dslN), nil }},
		{name: "atc-nqueens", n: dslN, build: func() (adaptivetc.Program, error) {
			return adaptivetc.CompileATC("atc-nqueens", src, map[string]int64{"n": dslN})
		}},
	}
}

// solveConfig is one of the three Real configurations every instance runs.
type solveConfig int

const (
	cfgSerial solveConfig = iota
	cfgATC1
	cfgATC2
	numConfigs
)

var configNames = [numConfigs]string{"serial", "atc-1w", "atc-2w"}

// solveSample is one interleaved triple: the three configurations of one
// instance, run back to back in a seed-chosen order.
type solveSample struct {
	prog  int
	wall  [numConfigs]float64 // ns, timed around Engine.Run
	stats [numConfigs]adaptivetc.Stats
}

type solveState struct {
	progs []*solveProgram
	insts []adaptivetc.Program
	sim   []float64 // per program: Sim serial ÷ Sim AdaptiveTC 8-worker makespan
	rng   *rand.Rand

	rounds    []solveRound
	attempted int
	fails     failures
}

// setupSolve builds every instance, computes its serial oracle and its
// deterministic Sim speedup, and runs one untimed warm-up triple each.
func setupSolve(seed int64, tr *tracer) (*solveState, error) {
	st := &solveState{progs: solveMix(), rng: rand.New(rand.NewSource(seed))}
	for _, p := range st.progs {
		sp := tr.start("lang.build", 0, 0)
		inst, err := p.build()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", p.label(), err)
		}
		st.insts = append(st.insts, inst)
		res, err := adaptivetc.NewSerial().Run(inst, adaptivetc.Options{Workers: 1, Platform: adaptivetc.NewRealPlatform(seed)})
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", p.label(), err)
		}
		p.oracle = res.Value
		simSer, err := adaptivetc.NewSerial().Run(inst, adaptivetc.Options{Workers: 1, Platform: adaptivetc.NewSimPlatform(seed)})
		if err != nil {
			return nil, fmt.Errorf("sim serial %s: %w", p.label(), err)
		}
		simATC, err := adaptivetc.NewAdaptiveTC().Run(inst, adaptivetc.Options{Workers: 8, Platform: adaptivetc.NewSimPlatform(seed), Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("sim adaptivetc %s: %w", p.label(), err)
		}
		if simSer.Value != p.oracle || simATC.Value != p.oracle {
			return nil, fmt.Errorf("sim %s: values %d/%d, oracle %d", p.label(), simSer.Value, simATC.Value, p.oracle)
		}
		st.sim = append(st.sim, float64(simSer.Makespan)/float64(simATC.Makespan))
	}
	for i := range st.progs {
		if _, bad := st.triple(i, false, nil, 0, 0); bad != "" {
			return nil, fmt.Errorf("warm-up: %s", bad)
		}
	}
	return st, nil
}

// triple runs the three Real configurations of program i in a
// seed-chosen order. bad describes the first wrong value or error.
func (st *solveState) triple(i int, profile bool, tr *tracer, parent int, id int64) (s solveSample, bad string) {
	s.prog = i
	p, inst := st.progs[i], st.insts[i]
	for _, c := range st.rng.Perm(int(numConfigs)) {
		cfg := solveConfig(c)
		eng, workers := adaptivetc.NewAdaptiveTC(), 1
		switch cfg {
		case cfgSerial:
			eng = adaptivetc.NewSerial()
		case cfgATC2:
			workers = 2
		}
		seed := st.rng.Int63()
		opt := adaptivetc.Options{Workers: workers, Platform: adaptivetc.NewRealPlatform(seed), Seed: seed, Profile: profile}
		sp := tr.start("core.run/"+configNames[cfg], parent, id)
		t0 := time.Now()
		res, err := eng.Run(inst, opt)
		s.wall[cfg] = float64(time.Since(t0).Nanoseconds())
		tr.end(sp)
		s.stats[cfg] = res.Stats
		switch {
		case err != nil:
			bad = fmt.Sprintf("%s %s: %v", p.label(), configNames[cfg], err)
		case res.Value != p.oracle:
			bad = fmt.Sprintf("%s %s: value %d, oracle %d", p.label(), configNames[cfg], res.Value, p.oracle)
		}
		if bad != "" {
			return s, bad
		}
	}
	return s, ""
}

// solveRound is one pass over the whole mix: every program's triple.
type solveRound struct {
	samples []solveSample
	traced  bool
}

// run measures complete rounds until d has passed. Each round visits the
// programs in a seed-chosen order.
func (st *solveState) run(d time.Duration, tr *tracer) {
	deadline := time.Now().Add(d)
	for round := int64(1); time.Now().Before(deadline); round++ {
		r := solveRound{traced: tr != nil}
		sp := tr.start("bench.round", 0, round)
		for _, i := range st.rng.Perm(len(st.progs)) {
			st.attempted += int(numConfigs)
			s, bad := st.triple(i, tr != nil, tr, sp, round)
			if bad != "" {
				st.fails.add(bad)
				continue
			}
			r.samples = append(r.samples, s)
		}
		tr.end(sp)
		if len(r.samples) == len(st.progs) {
			st.rounds = append(st.rounds, r)
		}
	}
}

func (st *solveState) close() {}

// summary folds the rounds measured with (traced) or without tracing.
// The operation is one round's AdaptiveTC 2-worker solves; x_serial is
// a round's 2-worker time over its serial time, run interleaved.
func (st *solveState) summary(traced bool) summary {
	out := summary{attempted: st.attempted, fails: st.fails, layer: map[string]float64{}}
	var lat, xs, busy []float64
	perProg := make([][]solveSample, len(st.progs))
	for _, r := range st.rounds {
		if r.traced != traced {
			continue
		}
		var t2, ts float64
		for _, s := range r.samples {
			t2 += s.wall[cfgATC2]
			ts += s.wall[cfgSerial]
			perProg[s.prog] = append(perProg[s.prog], s)
		}
		lat = append(lat, t2/1e6)
		xs = append(xs, t2/ts)
		busy = append(busy, t2/1e9)
	}
	out.ops = len(lat)
	if out.ops == 0 {
		out.coverage = "no complete round"
		return out
	}
	out.opsPerS = float64(len(lat)) / sum(busy)
	out.p50 = median(lat)
	out.tail, out.tailPct = tail(lat)
	out.xSerial = median(xs)

	// The paper's units, per program (median of per-triple ratios), then
	// the geometric mean over the mix.
	var ov, sp, sim []float64
	var agg [numConfigs]adaptivetc.Stats
	var wall1 []float64
	var special, steals, depth []float64
	var dslSerial, nativeSerial []float64
	var atcNodes, atcWall float64
	for i, ss := range perProg {
		var r1, r2 []float64
		for _, s := range ss {
			r1 = append(r1, s.wall[cfgATC1]/s.wall[cfgSerial])
			r2 = append(r2, s.wall[cfgSerial]/s.wall[cfgATC2])
			for c := range agg {
				agg[c].Add(s.stats[c])
			}
			wall1 = append(wall1, s.wall[cfgATC1])
			special = append(special, float64(s.stats[cfgATC2].SpecialTasks))
			steals = append(steals, float64(s.stats[cfgATC2].Steals))
			depth = append(depth, float64(s.stats[cfgATC2].MaxDequeDepth))
			switch p := st.progs[i]; {
			case p.name == "atc-nqueens":
				dslSerial = append(dslSerial, s.wall[cfgSerial])
				atcNodes += float64(s.stats[cfgSerial].Nodes)
				atcWall += s.wall[cfgSerial]
			case p.name == "nqueens-array" && p.n == dslN:
				nativeSerial = append(nativeSerial, s.wall[cfgSerial])
			}
		}
		ov = append(ov, median(r1))
		sp = append(sp, median(r2))
		sim = append(sim, st.sim[i])
		out.notes = append(out.notes, fmt.Sprintf("%-18s serial %.3f ms  atc-1w %.3f ms  atc-2w %.3f ms  overhead_1w %.3f  speedup_2w %.3f  sim_speedup_8w %.3f  (%d triples)",
			st.progs[i].label(), median(col(ss, cfgSerial))/1e6, median(col(ss, cfgATC1))/1e6, median(col(ss, cfgATC2))/1e6,
			median(r1), median(r2), st.sim[i], len(ss)))
	}
	a1, a2 := agg[cfgATC1], agg[cfgATC2]
	L := out.layer
	L["core.overhead_1w"] = geomean(ov)
	L["core.speedup_2w"] = geomean(sp)
	L["core.sim_speedup_8w"] = geomean(sim)
	L["lang.dsl_slowdown"] = median(dslSerial) / median(nativeSerial)
	L["core.ns_per_node_1w"] = sum(wall1) / float64(a1.Nodes)
	L["core.fake_share_2w"] = ratio(a2.FakeTasks, a2.FakeTasks+a2.TasksCreated)
	L["core.special_tasks_2w"] = median(special)
	L["deque.tasks_per_node"] = ratio(a2.TasksCreated, a2.Nodes)
	L["deque.max_depth"] = median(depth)
	L["wsrt.steals_2w"] = median(steals)
	L["wsrt.steal_success"] = ratio(a2.Steals, a2.Steals+a2.StealFails)
	L["wsrt.copy_bytes_per_node"] = ratio(a2.WorkspaceBytes, a2.Nodes)
	L["wsrt.wait_share_2w"] = ratio(a2.WaitTime, a2.WorkerTime)
	L["wsrt.steal_share_2w"] = ratio(a2.StealTime, a2.WorkerTime)
	L["lang.ns_per_node"] = atcWall / atcNodes
	out.notes = append(out.notes, fmt.Sprintf("overhead_1w %.3f  speedup_2w %.3f  dsl_slowdown %.3f  sim_speedup_8w %.4f  (geometric means over the mix)",
		L["core.overhead_1w"], L["core.speedup_2w"], L["lang.dsl_slowdown"], L["core.sim_speedup_8w"]))
	if a2.Steals == 0 {
		out.coverage = "no steal at 2 workers: the work-stealing runtime did no work"
	}
	return out
}

func col(ss []solveSample, c solveConfig) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall[c]
	}
	return out
}
