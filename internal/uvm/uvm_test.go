package uvm

import (
	"fmt"
	"strings"
	"testing"

	"uvllm/internal/dataset"
)

func newEnvFor(t *testing.T, name, source string) *Env {
	t.Helper()
	m := dataset.ByName(name)
	if m == nil {
		t.Fatalf("no dataset module %q", name)
	}
	if source == "" {
		source = m.Source
	}
	env, err := NewEnv(Config{
		Source: source, Top: m.Top, Clock: m.Clock, RefName: m.Name, Seed: 11,
	})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func randomSeqFor(env *Env, n int) *RandomSequence {
	return NewRandomSequence(env.DUT.Sim.Design(), env.DUT.Clock, n)
}

func TestGoldenDUTPassesFully(t *testing.T) {
	env := newEnvFor(t, "counter_12bit", "")
	rate := env.Run(randomSeqFor(env, 200))
	if rate != 1.0 {
		t.Fatalf("golden counter pass rate = %.2f, want 1.0\nlog:\n%s", rate, env.Log())
	}
	if env.Score.Total != 200 {
		t.Errorf("total = %d, want 200", env.Score.Total)
	}
	if !strings.Contains(env.Log(), "pass_rate=100.00%") {
		t.Errorf("log missing pass rate line:\n%s", env.Log())
	}
	if len(env.Score.Mismatches) != 0 {
		t.Errorf("unexpected mismatches: %v", env.Score.Mismatches)
	}
}

func TestBuggyDUTDetected(t *testing.T) {
	// Counter that adds 2 instead of 1: a value-misuse fault.
	buggy := strings.Replace(dataset.ByName("counter_12bit").Source,
		"count + 12'd1", "count + 12'd2", 1)
	env := newEnvFor(t, "counter_12bit", buggy)
	rate := env.Run(randomSeqFor(env, 100))
	if rate > 0.2 {
		t.Fatalf("buggy counter pass rate = %.2f, want near 0", rate)
	}
	if len(env.Score.Mismatches) == 0 {
		t.Fatal("no mismatches recorded")
	}
	mm := env.Score.Mismatches[0]
	if mm.Signal != "count" {
		t.Errorf("mismatch signal = %q, want count", mm.Signal)
	}
	if !strings.Contains(env.Log(), "UVM_ERROR") {
		t.Error("log missing UVM_ERROR lines")
	}
	if !strings.Contains(env.Log(), "signal=count") {
		t.Error("log missing mismatch signal")
	}
}

// TestMismatchOrderSorted pins the scoreboard's fixed order: when two
// outputs mismatch in one cycle they are recorded and logged in sorted
// output-name order (cout before sum, against declaration order), so
// the log is byte-identical from run to run.
func TestMismatchOrderSorted(t *testing.T) {
	buggy := strings.Replace(dataset.ByName("adder_8bit").Source,
		"a + b + {7'd0, cin};", "~(a + b + {7'd0, cin});", 1)
	var first string
	for run := 0; run < 20; run++ {
		env := newEnvFor(t, "adder_8bit", buggy)
		env.Run(randomSeqFor(env, 30))
		mm := env.Score.Mismatches
		if len(mm) < 2 || mm[0].Time != mm[1].Time || mm[0].Signal != "cout" || mm[1].Signal != "sum" {
			t.Fatalf("cycle 0 mismatches = %+v, want cout then sum", head(mm, 2))
		}
		if run == 0 {
			first = env.Log()
		} else if env.Log() != first {
			t.Fatalf("run %d log differs from run 0:\n%s\n---\n%s", run, env.Log(), first)
		}
	}
}

// TestMismatchLineMatchesFmt: the scoreboard's appended log line is the
// line fmt formatted before, byte for byte.
func TestMismatchLineMatchesFmt(t *testing.T) {
	const format = "UVM_ERROR @ %d: uvm_test_top.env.scoreboard [SCBD] mismatch signal=%s expected=0x%x actual=0x%x\n"
	long := strings.Repeat("very_long_signal_name_", 12)
	values := []uint64{0, 1, 0xa5, 1 << 63, ^uint64(0)}
	var buf []byte
	for _, cycle := range []int{0, 1, 9, 10, 123456789, 1 << 40} {
		for _, sig := range []string{"q", "count", "data_out", long} {
			for _, exp := range values {
				for _, act := range values {
					mm := Mismatch{Time: cycle, Signal: sig, Expected: exp, Actual: act}
					buf = appendMismatchLine(buf[:0], mm)
					if want := fmt.Sprintf(format, mm.Time, mm.Signal, mm.Expected, mm.Actual); string(buf) != want {
						t.Fatalf("line %q, want %q", buf, want)
					}
				}
			}
		}
	}
}

// TestRunOffLayoutVectorsFatal drives streams that fit the row layout
// until one vector does not — an input missing, the clock key, an
// internal signal — and requires Env.Run to stop before its reset phase
// with one fatal: Materialize's error, naming that vector and the key.
func TestRunOffLayoutVectorsFatal(t *testing.T) {
	full := func(en uint64) map[string]uint64 { return map[string]uint64{"rst_n": 1, "en": en} }
	cases := map[string]struct {
		vectors []map[string]uint64
		want    string
	}{
		"missing input": {
			[]map[string]uint64{full(1), full(1), {"rst_n": 1}, full(0)},
			`uvm: vector 2 has no value for input "en"`,
		},
		"clock key": {
			[]map[string]uint64{full(1), {"rst_n": 1, "en": 1, "clk": 1}, full(0)},
			`uvm: vector 1 sets "clk", which is not a row-layout input`,
		},
		"internal signal": {
			[]map[string]uint64{full(1), full(1), full(1), {"rst_n": 1, "en": 1, "count": 4094}, full(1)},
			`uvm: vector 3 sets "count", which is not a row-layout input`,
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			env := newEnvFor(t, "counter_12bit", "")
			if rate := env.Run(&DirectedSequence{Vectors: c.vectors}); rate != 0 {
				t.Errorf("pass rate %v, want 0", rate)
			}
			if err := env.Fatal(); err == nil || err.Error() != c.want {
				t.Fatalf("fatal %v, want %s", err, c.want)
			}
			if n := strings.Count(env.Log(), "UVM_FATAL"); n != 1 {
				t.Errorf("log has %d fatals, want 1:\n%s", n, env.Log())
			}
			if line := "UVM_FATAL @ 0: uvm_test_top.env [SIM] " + c.want + "\n"; !strings.Contains(env.Log(), line) {
				t.Errorf("log lacks %q:\n%s", line, env.Log())
			}
			if env.DUT.CycleCount() != 0 || env.Score.Total != 0 {
				t.Errorf("ran %d cycles and scored %d before the fatal", env.DUT.CycleCount(), env.Score.Total)
			}
			if _, err := Materialize(&DirectedSequence{Vectors: c.vectors}, 0, env.DUT.Ports()); err == nil || err.Error() != c.want {
				t.Errorf("Materialize error %v, want %s", err, c.want)
			}
		})
	}
}

func TestMismatchCapRespected(t *testing.T) {
	buggy := strings.Replace(dataset.ByName("counter_12bit").Source,
		"count + 12'd1", "count + 12'd2", 1)
	m := dataset.ByName("counter_12bit")
	env, err := NewEnv(Config{
		Source: buggy, Top: m.Top, Clock: m.Clock, RefName: m.Name, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run(randomSeqFor(env, 200))
	if got := len(env.Score.Mismatches); got != 64 {
		t.Errorf("recorded %d mismatches, want the cap of 64", got)
	}
	if env.Score.Total != 200 {
		t.Errorf("comparisons stopped early: %d", env.Score.Total)
	}
}

func TestAllGoldenModulesPassUVM(t *testing.T) {
	for _, m := range dataset.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			env := newEnvFor(t, m.Name, "")
			rate := env.Run(randomSeqFor(env, 150))
			if rate != 1.0 {
				t.Fatalf("pass rate = %.4f, want 1.0; first mismatches: %+v",
					rate, head(env.Score.Mismatches, 3))
			}
		})
	}
}

func head(mms []Mismatch, n int) []Mismatch {
	if len(mms) < n {
		return mms
	}
	return mms[:n]
}

func TestCoverageHighUnderRandom(t *testing.T) {
	env := newEnvFor(t, "alu", "")
	env.Run(randomSeqFor(env, 500))
	if got := env.Cov.Percent(); got < 90 {
		t.Errorf("ALU coverage under 500 random vectors = %.1f%%, want >= 90%%\n%s",
			got, env.Cov.Report())
	}
}

func TestCoverageLowUnderTinyDirected(t *testing.T) {
	env := newEnvFor(t, "alu", "")
	seq := &DirectedSequence{Vectors: []map[string]uint64{
		{"a": 1, "b": 1, "op": 0},
		{"a": 2, "b": 1, "op": 1},
	}}
	env.Run(seq)
	high := newEnvFor(t, "alu", "")
	high.Run(randomSeqFor(high, 500))
	if env.Cov.Percent() >= high.Cov.Percent() {
		t.Errorf("directed coverage %.1f%% not below random %.1f%%",
			env.Cov.Percent(), high.Cov.Percent())
	}
}

func TestDirectedSequencePlaysInOrder(t *testing.T) {
	seq := &DirectedSequence{Vectors: []map[string]uint64{{"a": 1}, {"a": 2}}}
	v1, ok1 := seq.Next(nil)
	v2, ok2 := seq.Next(nil)
	_, ok3 := seq.Next(nil)
	if !ok1 || !ok2 || ok3 {
		t.Fatal("sequence length handling wrong")
	}
	if v1["a"] != 1 || v2["a"] != 2 {
		t.Errorf("order wrong: %v %v", v1, v2)
	}
	if seq.Len() != 2 {
		t.Errorf("Len = %d", seq.Len())
	}
}

func TestEnvRejectsBrokenSource(t *testing.T) {
	m := dataset.ByName("mux4")
	_, err := NewEnv(Config{
		Source: "module mux4(input a output y); endmodule",
		Top:    m.Top, RefName: m.Name,
	})
	if err == nil {
		t.Fatal("NewEnv accepted syntactically broken source")
	}
}

func TestScoreboardPassRateEmpty(t *testing.T) {
	sb := &Scoreboard{}
	if sb.PassRate() != 0 {
		t.Error("empty scoreboard should score 0")
	}
}

func TestFSMDetectsSequencePattern(t *testing.T) {
	// End-to-end sanity on an FSM: feed 1011 and require z once.
	env := newEnvFor(t, "seq_detector", "")
	vec := func(x uint64) map[string]uint64 { return map[string]uint64{"x": x, "rst_n": 1} }
	seq := &DirectedSequence{Vectors: []map[string]uint64{
		vec(1), vec(0), vec(1), vec(1), vec(0), vec(0),
	}}
	rate := env.Run(seq)
	if rate != 1.0 {
		t.Fatalf("golden FSM mismatched its model: %.2f\n%s", rate, env.Log())
	}
	// z must have pulsed exactly once in the waveform (cycle index 5:
	// 2 reset cycles + 4th data cycle completes the pattern).
	w := env.Waveform()
	pulses := 0
	for c := 0; c < w.Cycles(); c++ {
		if w.At("z", c) == 1 {
			pulses++
		}
	}
	if pulses != 1 {
		t.Errorf("z pulsed %d times, want 1", pulses)
	}
}
