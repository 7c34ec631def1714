package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/obs"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// Lane-screen sizes: the bit-parallel screen runs a full 64-lane word,
// the batched observation one lane per seed, and the directed scorer
// the uvm default candidate count.
const (
	classifyLanes  = 64
	classifyCycles = 2000
	observeSeeds   = 8
	observeVectors = 500
	directedCycles = 2000
	directedLanes  = 8
)

// laneState is the lane_screen set-up: the functional benchmark faults
// and the compiled golden modules.
type laneState struct {
	faults  []*faultgen.Fault
	modules []*dataset.Module
	goldens []*sim.Program
	seeds   []int64
}

// runLaneScreen screens every functional benchmark fault with the
// bit-parallel classifier (psim) and batched observation (sim.Batch),
// and runs coverage-directed stimulus on every golden module with the
// batch and bit-lane scorers. One op is one of those calls.
func runLaneScreen(rc *runCtx) error {
	st := &laneState{}
	for _, f := range faultgen.Benchmark() {
		if !f.Class.IsSyntax() {
			st.faults = append(st.faults, f)
		}
	}
	st.faults = trim(rc, st.faults)
	for _, m := range trim(rc, dataset.All()) {
		p, err := sim.CompileSource(m.Source, m.Top, sim.BackendCompiled)
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
		st.modules = append(st.modules, m)
		st.goldens = append(st.goldens, p)
	}
	for k := 0; k < observeSeeds; k++ {
		st.seeds = append(st.seeds, rc.seed*observeSeeds+int64(k))
	}
	if rc.ready() {
		return nil
	}
	// Warm-up pass, untimed: fills the process-wide compile cache and
	// golden-trace memo the screens read through.
	warm := lanePass(rc, st, nil, nil)
	rc.out.Info["warmup_s"] = warm.seconds
	digest := warm.digest

	rc.startTimed()
	var last lanePassResult
	for p := 0; !rc.timeUp(); p++ {
		t0 := time.Now()
		last = lanePass(rc, st, nil, rc.op)
		rc.pass(t0)
		rc.check(last.digest == digest, "pass %d detection/coverage digest %s differs from the warm-up pass (%s)", p, last.digest, digest)
	}
	rc.stopTimed(rc.out.Attempted)
	passMed := median(rc.out.Passes)
	rc.out.E2E["throughput_per_s"] = float64(last.ops) / passMed
	rc.out.Digests["screen"] = digest
	laneLayers(rc, last, passMed)

	if !rc.trace {
		return nil
	}
	tr := obs.NewTracer("")
	traced := lanePass(rc, st, tr, nil)
	rc.check(traced.digest == digest, "traced pass digest %s differs from untraced %s", traced.digest, digest)
	laneLayers(rc, traced, passMed)
	return rc.finishTrace(fromObs("screen", tr.Spans()), traced.seconds, median(rc.out.RawPasses))
}

// lanePassResult summarizes one pass.
type lanePassResult struct {
	seconds    float64
	ops        int
	digest     string
	laneCycles int64
	gateOps    int
	classified int
	supported  int
}

// lanePass runs every screen once. record, when set, receives each op's
// latency; tr, when set, wraps each op in a root "screen" span over a
// span named for the engine it drives.
func lanePass(rc *runCtx, st *laneState, tr *obs.Tracer, record func(time.Duration, error)) lanePassResult {
	var r lanePassResult
	h := sha256.New()
	do := func(name string, fn func() error) {
		root := tr.Start("screen")
		sp := root.Child(name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		sp.End()
		root.End()
		r.ops++
		if record != nil {
			record(d, err)
		}
		rc.check(record != nil || err == nil, "%s: %v", name, err)
	}
	t0 := time.Now()
	for _, f := range st.faults {
		do("psim.classify", func() error {
			v, err := faultgen.ClassifyBitParallel(f, classifyLanes, classifyCycles, rc.seed)
			r.classified++
			if v.Supported {
				r.supported++
				r.gateOps += v.GateOps
				r.laneCycles += int64(v.Lanes) * classifyCycles
			}
			fmt.Fprintf(h, "c|%s|%+v\n", f.ID, v)
			return err
		})
		do("batch.observe", func() error {
			rates, err := faultgen.ObserveLanes(f, st.seeds, observeVectors)
			if err == nil {
				r.laneCycles += int64(len(st.seeds)) * observeVectors
			}
			fmt.Fprintf(h, "o|%s|%v|%v\n", f.ID, rates, err)
			return err
		})
	}
	for i, m := range st.modules {
		for _, bit := range []bool{false, true} {
			name := "uvm.directed_batch"
			if bit {
				name = "uvm.directed_bit"
			}
			do(name, func() error {
				cov, corpus, err := uvm.CoverageDirected(st.goldens[i], uvm.StimConfig{
					Clock: m.Clock, Cycles: directedCycles, Seed: rc.seed, Lanes: directedLanes, BitLanes: bit,
				})
				if err != nil {
					fmt.Fprintf(h, "d|%s|%v|%v\n", m.Name, bit, err)
					return err
				}
				r.laneCycles += directedCycles
				fmt.Fprintf(h, "d|%s|%v|%.6f|%d\n", m.Name, bit, cov.Percent(), len(corpus.Entries))
				return nil
			})
		}
	}
	r.seconds = time.Since(t0).Seconds()
	r.digest = fmt.Sprintf("%x", h.Sum(nil)[:12])
	return r
}

// laneLayers sets the lane-engine counts of one pass.
func laneLayers(rc *runCtx, r lanePassResult, passS float64) {
	rc.out.Counts["lane_cycles"] = int(r.laneCycles)
	rc.out.Counts["psim.supported"] = r.supported
	rc.out.Layer["psim.gate_ops_per_op"] = float64(r.gateOps) / math.Max(float64(r.supported), 1)
	rc.out.Layer["psim.supported_ratio"] = float64(r.supported) / math.Max(float64(r.classified), 1)
	rc.out.Layer["lane.cycles_per_s"] = float64(r.laneCycles) / passS
}
