package rtlgen

// Lane-engine differential gate, the fifth oracle. DiffBackends pins the
// two scalar engines to each other; DiffLanes pins both lane engines
// (sim.LaneEngine) to standalone harnesses. K lanes of one Program fused
// into a coverage-collecting sim.Batch and — when the design is in the
// bit-parallel subset — the first min(K, 64) of them evaluated
// one-bit-per-word by a psim.Engine must be byte-identical to K
// standalone Harness runs under the same per-lane stimulus rows:
// per-cycle outputs, per-lane errors at the same cycle with the same
// message, waveform, VCD rendering, final signals and memory words, and
// the batch's structural coverage encoding. Lanes get staggered stream
// lengths, so mid-run retirement (frozen state, truncated waveform) is on
// the differential path too. Any divergence is a bug in a lane engine.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"uvllm/internal/formal"
	"uvllm/internal/psim"
	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// DiffLanes runs `lanes` lanes of src, lane k for max(cycles-k%3, 1)
// cycles under its own seeded stimulus stream (seed+lane), through every
// lane engine and through standalone harnesses, and compares every
// observable per lane. Sources that do not elaborate are vacuously fine
// (DiffBackends owns construction errors). It reports whether the psim
// engine took part; a non-nil error is a genuine divergence.
func DiffLanes(src, top, clock string, lanes, cycles int, seed int64) (bool, error) {
	p, err := diffCache.Compile(src, top, sim.BackendCompiled)
	if err != nil {
		return false, nil
	}
	b, err := sim.NewBatch(p, lanes, clock)
	if err != nil {
		// Standalone construction succeeds exactly when NewInstance does;
		// the batch failing to construct the same instances is a divergence.
		return false, fmt.Errorf("batch construction: %v", err)
	}
	if err := b.EnableCover(sim.CoverAll()); err != nil {
		return false, fmt.Errorf("batch cover: %v", err)
	}
	engines := []sim.LaneEngine{b}
	switch e, err := psim.NewEngine(p, min(lanes, 64), clock); {
	case err == nil:
		engines = append(engines, e)
	case !errors.Is(err, formal.ErrUnsupported):
		return false, fmt.Errorf("psim construction: %v", err)
	}
	refs := make([]*sim.Harness, lanes)
	refErrs := make([]error, lanes)
	for k := range refs {
		inst, err := p.NewInstance()
		if err != nil {
			return false, fmt.Errorf("lane %d standalone instance: %v", k, err)
		}
		refs[k] = sim.NewHarness(inst, clock)
		if err := refs[k].EnableCover(sim.CoverAll()); err != nil {
			return false, fmt.Errorf("lane %d cover: %v", k, err)
		}
	}

	for _, eng := range engines {
		if err := eng.ApplyReset(2); err != nil {
			return false, fmt.Errorf("%T reset: %v", eng, err)
		}
	}
	for k, h := range refs {
		refErrs[k] = h.ApplyReset(2)
		if err := sameLaneErr(engines, k, refErrs[k]); err != nil {
			return false, fmt.Errorf("lane %d reset diverged: %v", k, err)
		}
	}

	// Per-lane stimulus streams: deterministic per lane (not shared), so
	// lanes exercise genuinely distinct trajectories, with staggered
	// lengths so the longer lanes keep running after the shorter ones
	// retire.
	d := p.Design()
	var outNames []string
	for _, pt := range d.Outputs() {
		if _, ok := d.SignalIndex(pt.Name); ok {
			outNames = append(outNames, pt.Name)
		}
	}
	ports := b.Ports()
	rngs := make([]*rand.Rand, lanes)
	length := make([]int, lanes)
	for k := range rngs {
		rngs[k] = rand.New(rand.NewSource(seed + int64(k)))
		length[k] = max(cycles-k%3, 1)
	}
	rows := make([][]uint64, lanes)
	var want, got []uint64
	for cyc := 0; cyc < cycles; cyc++ {
		for k := range rows {
			rows[k] = nil
			if refErrs[k] != nil || cyc >= length[k] {
				continue // dead or retired lane: masked everywhere
			}
			row := make([]uint64, len(ports))
			for i, pt := range ports {
				row[i] = rngs[k].Uint64() & verilog.Mask(pt.Width)
			}
			rows[k] = row
		}
		for _, eng := range engines {
			if err := eng.Cycle(rows[:eng.Lanes()]); err != nil {
				return false, fmt.Errorf("%T cycle %d: %v", eng, cyc, err)
			}
		}
		for k, h := range refs {
			if rows[k] == nil {
				continue
			}
			refErrs[k] = h.CycleRow(rows[k])
			if err := sameLaneErr(engines, k, refErrs[k]); err != nil {
				return false, fmt.Errorf("lane %d cycle %d diverged: %v", k, cyc, err)
			}
			if refErrs[k] != nil {
				continue
			}
			want = h.OutputRow(want)
			for _, eng := range engines {
				if k >= eng.Lanes() {
					continue
				}
				got = eng.OutputRow(k, got)
				for i, v := range want {
					if got[i] != v {
						return false, fmt.Errorf("lane %d cycle %d signal %s: %T=0x%x standalone=0x%x",
							k, cyc, outNames[i], eng, got[i], v)
					}
				}
			}
		}
	}

	for k, h := range refs {
		var vcdH bytes.Buffer
		if err := sim.WriteVCD(&vcdH, h.Wave, d, top); err != nil {
			return false, fmt.Errorf("lane %d vcd: %v", k, err)
		}
		for _, eng := range engines {
			if k >= eng.Lanes() {
				continue
			}
			if err := sameLaneTrace(eng, k, h, &vcdH, top); err != nil {
				return false, fmt.Errorf("lane %d: %v", k, err)
			}
			if refErrs[k] != nil {
				continue // dead lanes: trace prefix and error already compared
			}
			if err := sameLaneState(eng, k, h.Sim); err != nil {
				return false, fmt.Errorf("lane %d: %v", k, err)
			}
		}
		encB, encH := b.Coverage(k).Encode(), h.Coverage().Encode()
		if !bytes.Equal(encB, encH) {
			return false, fmt.Errorf("lane %d structural coverage maps differ:\n--- batch ---\n%s--- standalone ---\n%s", k, encB, encH)
		}
	}
	return len(engines) > 1, nil
}

// sameLaneErr compares lane k's error on every engine that has the lane
// with the standalone harness's.
func sameLaneErr(engines []sim.LaneEngine, k int, want error) error {
	for _, eng := range engines {
		if k < eng.Lanes() && !errEqual(want, eng.Err(k)) {
			return fmt.Errorf("%T=%v standalone=%v", eng, eng.Err(k), want)
		}
	}
	return nil
}

// sameLaneTrace compares lane k's waveform, cell by cell and as VCD
// bytes, with the standalone harness's.
func sameLaneTrace(eng sim.LaneEngine, k int, h *sim.Harness, vcdH *bytes.Buffer, top string) error {
	ew, hw := eng.Wave(k), h.Wave
	if ew.Cycles() != hw.Cycles() {
		return fmt.Errorf("waveform length: %T=%d standalone=%d", eng, ew.Cycles(), hw.Cycles())
	}
	for _, n := range hw.Names() {
		for cyc := 0; cyc < hw.Cycles(); cyc++ {
			if ew.At(n, cyc) != hw.At(n, cyc) {
				return fmt.Errorf("waveform %s@%d: %T=0x%x standalone=0x%x", n, cyc, eng, ew.At(n, cyc), hw.At(n, cyc))
			}
		}
	}
	var vcdE bytes.Buffer
	if err := sim.WriteVCD(&vcdE, ew, h.Sim.Design(), top); err != nil {
		return fmt.Errorf("vcd: %v", err)
	}
	if !bytes.Equal(vcdE.Bytes(), vcdH.Bytes()) {
		return fmt.Errorf("%T VCD output differs", eng)
	}
	return nil
}

// sameLaneState compares lane k's final signals and memory words with
// the standalone instance's.
func sameLaneState(eng sim.LaneEngine, k int, ref *sim.Instance) error {
	d := ref.Design()
	for i := 0; i < d.NumSignals(); i++ {
		sv := d.Signal(i)
		if got, want := eng.Get(k, sv.Name), ref.Get(sv.Name); got != want {
			return fmt.Errorf("internal signal %s: %T=0x%x standalone=0x%x", sv.Name, eng, got, want)
		}
		if !sv.IsMem {
			continue
		}
		for w := 0; w < sv.Depth; w++ {
			if got, want := eng.GetMem(k, sv.Name, w), ref.GetMem(sv.Name, w); got != want {
				return fmt.Errorf("memory %s[%d]: %T=0x%x standalone=0x%x", sv.Name, w, eng, got, want)
			}
		}
	}
	return nil
}
