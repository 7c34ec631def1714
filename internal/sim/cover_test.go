package sim

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"uvllm/internal/cover"
)

// coverFSMSrc is a small Moore machine exercising every coverage model:
// statements, if/case branches, toggles and FSM state/transition
// inference on the "state" register.
const coverFSMSrc = `
module cfsm(clk, rst_n, in, out);
  input clk;
  input rst_n;
  input in;
  output out;
  reg out;
  reg [1:0] state;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) state <= 2'd0;
    else begin
      case (state)
        2'd0: if (in) state <= 2'd1;
        2'd1: begin
          if (in) state <= 2'd2;
          else state <= 2'd0;
        end
        2'd2: state <= 2'd0;
        default: state <= 2'd0;
      endcase
    end
  end
  always @(*) begin
    out = 1'b0;
    if (state == 2'd2) out = 1'b1;
  end
endmodule
`

func coverRun(t *testing.T, backend Backend, cycles int, seed int64) *cover.Map {
	t.Helper()
	s, err := CompileAndNewBackend(coverFSMSrc, "cfsm", backend)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	h := NewHarness(s, "clk")
	if err := h.EnableCover(); err != nil {
		t.Fatalf("EnableCover: %v", err)
	}
	if err := h.ApplyReset(2); err != nil {
		t.Fatalf("reset: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < cycles; i++ {
		if _, err := h.Cycle(map[string]uint64{"rst_n": 1, "in": rng.Uint64() & 1}); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	return h.Coverage()
}

func TestCoverageDisabledByDefault(t *testing.T) {
	s, err := CompileAndNew(coverFSMSrc, "cfsm")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(s, "clk")
	if h.Coverage() != nil {
		t.Fatal("coverage must be off by default")
	}
	if _, err := h.Cycle(map[string]uint64{"rst_n": 1, "in": 1}); err != nil {
		t.Fatal(err)
	}
	if h.Coverage() != nil {
		t.Fatal("cycling must not enable coverage")
	}
}

func TestCoverageUniverseAndHits(t *testing.T) {
	m := coverRun(t, BackendCompiled, 40, 7)
	if m == nil {
		t.Fatal("nil coverage map")
	}
	// The universe must be registered up front: FSM states 0,1,2 and the
	// 9 transitions, branch arms for the if/case, statements, toggles.
	for _, p := range []cover.Point{
		{Kind: cover.KindState, Name: "state=0"},
		{Kind: cover.KindState, Name: "state=2"},
		{Kind: cover.KindTrans, Name: "state:1->2"},
		{Kind: cover.KindTrans, Name: "state:2->2"}, // declared, never taken
		{Kind: cover.KindToggle0, Name: "state[1]"},
		{Kind: cover.KindToggle1, Name: "out[0]"},
	} {
		found := false
		for _, q := range m.Points() {
			if q == p {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("point %s missing from universe\n%s", p, m.Encode())
		}
	}
	// 40 random cycles on a 3-state machine must occupy every state and
	// hit the 2->2 self-loop never (state 2 always exits to 0).
	if m.Count(cover.Point{Kind: cover.KindState, Name: "state=2"}) == 0 {
		t.Fatalf("state 2 never occupied:\n%s", m.Report(50))
	}
	if m.Count(cover.Point{Kind: cover.KindTrans, Name: "state:2->2"}) != 0 {
		t.Fatal("impossible self-loop 2->2 recorded")
	}
	// The clock is excluded from the toggle universe by the harness.
	for _, q := range m.Points() {
		if q.Name == "clk[0]" {
			t.Fatal("harness clock must be excluded from the toggle universe")
		}
	}
	if m.Percent() <= 0 || m.Percent() > 100 {
		t.Fatalf("Percent out of range: %v", m.Percent())
	}
}

func TestCoverageCrossBackendByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		mC := coverRun(t, BackendCompiled, 50, seed)
		mE := coverRun(t, BackendEventDriven, 50, seed)
		if !bytes.Equal(mC.Encode(), mE.Encode()) {
			t.Fatalf("seed %d: coverage maps differ across backends:\n--- compiled ---\n%s--- event ---\n%s",
				seed, mC.Encode(), mE.Encode())
		}
	}
}

func TestCoverageSharedProgramIndependentInstances(t *testing.T) {
	p, err := CompileSource(coverFSMSrc, "cfsm", BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cycles int) *cover.Map {
		inst, err := p.NewInstance()
		if err != nil {
			t.Fatal(err)
		}
		h := NewHarness(inst, "clk")
		if err := h.EnableCover(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cycles; i++ {
			if _, err := h.Cycle(map[string]uint64{"rst_n": 1, "in": uint64(i) & 1}); err != nil {
				t.Fatal(err)
			}
		}
		return h.Coverage()
	}
	m1 := run(10)
	m2 := run(1)
	if m1.Hit() <= m2.Hit() {
		t.Fatalf("instances share counters? 10-cycle hit %d <= 1-cycle hit %d", m1.Hit(), m2.Hit())
	}
	// Merging is monotone and idempotent on the universe.
	merged := m2.Clone().Merge(m1)
	if merged.Len() != m1.Len() {
		t.Fatalf("merged universe %d != %d", merged.Len(), m1.Len())
	}
	if merged.Hit() < m1.Hit() {
		t.Fatal("merge lost hits")
	}
}

// TestCoverageConcurrentEnable: goroutines that enable coverage on
// instances of one Program under two harness clocks, and drive the same
// stimulus, build one plan per clock between them and encode exactly
// what a sequential run does. Run it with -race.
func TestCoverageConcurrentEnable(t *testing.T) {
	clocks := []string{"clk", ""}
	run := func(p *Program, clock string) ([]byte, error) {
		inst, err := p.NewInstance()
		if err != nil {
			return nil, err
		}
		h := NewHarness(inst, clock)
		if err := h.EnableCover(); err != nil {
			return nil, err
		}
		if err := h.ApplyReset(ResetCycles); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 40; i++ {
			if _, err := h.Cycle(map[string]uint64{"rst_n": 1, "in": rng.Uint64() & 1}); err != nil {
				return nil, err
			}
		}
		return h.Coverage().Encode(), nil
	}
	seq, err := CompileSource(coverFSMSrc, "cfsm", BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(clocks))
	for i, c := range clocks {
		if want[i], err = run(seq, c); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("the two clocks collect the same universe")
	}
	p, err := CompileSource(coverFSMSrc, "cfsm", BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := run(p, clocks[g%2])
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, want[g%2]) {
				t.Errorf("goroutine %d encoded\n%s\nsequential run encoded\n%s", g, got, want[g%2])
			}
		}(g)
	}
	wg.Wait()
	if n := len(p.coverPlans); n != len(clocks) {
		t.Fatalf("%d cached plans for %d clocks", n, len(clocks))
	}
}
