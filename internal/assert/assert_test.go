package assert

import (
	"strings"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

func TestOneHot(t *testing.T) {
	a := OneHot{Signal: "q"}
	if !a.Check(nil, map[string]uint64{"q": 0b0100}) {
		t.Error("single bit rejected")
	}
	if a.Check(nil, map[string]uint64{"q": 0b0110}) {
		t.Error("two bits accepted")
	}
	if a.Check(nil, map[string]uint64{"q": 0}) {
		t.Error("zero accepted without AllowZero")
	}
	az := OneHot{Signal: "q", AllowZero: true}
	if !az.Check(nil, map[string]uint64{"q": 0}) {
		t.Error("zero rejected with AllowZero")
	}
	if !strings.Contains(a.Describe(), "$onehot") {
		t.Error("describe not SVA-flavored")
	}
}

func TestBoundMutexResetValue(t *testing.T) {
	b := Bound{Signal: "s", Limit: 10}
	if !b.Check(nil, map[string]uint64{"s": 10}) || b.Check(nil, map[string]uint64{"s": 11}) {
		t.Error("bound check wrong")
	}
	m := Mutex{A: "x", B: "y"}
	if !m.Check(nil, map[string]uint64{"x": 1, "y": 0}) {
		t.Error("mutex rejects exclusive")
	}
	if m.Check(nil, map[string]uint64{"x": 1, "y": 1}) {
		t.Error("mutex accepts both high")
	}
	r := ResetValue{Reset: "rst_n", Signal: "q", Value: 0}
	if !r.Check(nil, map[string]uint64{"rst_n": 1, "q": 99}) {
		t.Error("reset assertion must be vacuous when reset inactive")
	}
	if r.Check(nil, map[string]uint64{"rst_n": 0, "q": 99}) {
		t.Error("reset value violation accepted")
	}
}

func TestCheckerAccumulates(t *testing.T) {
	c := NewChecker([]Assertion{Bound{Signal: "s", Limit: 5}})
	c.Sample(map[string]uint64{"s": 3})
	c.Sample(map[string]uint64{"s": 9})
	c.Sample(map[string]uint64{"s": 9})
	if c.Passed() {
		t.Fatal("violations missed")
	}
	if len(c.Violations) != 2 || c.Violations[0].Cycle != 1 {
		t.Errorf("violations = %+v", c.Violations)
	}
	if got := c.Failed(); len(got) != 1 || got[0] != "bound_s" {
		t.Errorf("Failed = %v", got)
	}
}

func TestCheckerViolationCap(t *testing.T) {
	c := NewChecker([]Assertion{Bound{Signal: "s", Limit: 0}})
	c.Max = 3
	for i := 0; i < 10; i++ {
		c.Sample(map[string]uint64{"s": 1})
	}
	if len(c.Violations) != 3 {
		t.Errorf("cap not respected: %d", len(c.Violations))
	}
}

func portsOf(t *testing.T, m *dataset.Module) []PortShape {
	t.Helper()
	s, err := sim.CompileAndNew(m.Source, m.Top)
	if err != nil {
		t.Fatal(err)
	}
	var ports []PortShape
	for _, p := range s.Design().Inputs() {
		if p.Name == m.Clock {
			continue
		}
		ports = append(ports, PortShape{Name: p.Name, Width: p.Width, Input: true})
	}
	for _, p := range s.Design().Outputs() {
		ports = append(ports, PortShape{Name: p.Name, Width: p.Width})
	}
	return ports
}

func TestMineRingCounterFindsOneHot(t *testing.T) {
	m := dataset.ByName("ring_counter")
	mined, err := Miner{}.Mine(m.Name, portsOf(t, m), m.HasReset, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range mined {
		if a.Name() == "onehot_q" {
			found = true
		}
	}
	if !found {
		t.Errorf("one-hot invariant of the ring counter not mined: %s", Describe(mined))
	}
}

func TestMineTrafficLightFindsMutex(t *testing.T) {
	m := dataset.ByName("traffic_light")
	mined, err := Miner{}.Mine(m.Name, portsOf(t, m), m.HasReset, 1)
	if err != nil {
		t.Fatal(err)
	}
	mutexes := 0
	for _, a := range mined {
		if strings.HasPrefix(a.Name(), "mutex_") {
			mutexes++
		}
	}
	// green/yellow/red pairwise exclusive: 3 mutex invariants.
	if mutexes != 3 {
		t.Errorf("mined %d mutex invariants, want 3:\n%s", mutexes, Describe(mined))
	}
}

func TestMinedAssertionsHoldOnGoldenDUT(t *testing.T) {
	// Every mined assertion must hold when checked against the *DUT*
	// (not the model it was mined from) under fresh stimulus.
	for _, name := range []string{"ring_counter", "traffic_light", "counter_12bit", "alu"} {
		m := dataset.ByName(name)
		mined, err := Miner{}.Mine(m.Name, portsOf(t, m), m.HasReset, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(mined) == 0 {
			continue
		}
		chk := NewChecker(mined)
		s, err := sim.CompileAndNew(m.Source, m.Top)
		if err != nil {
			t.Fatal(err)
		}
		h := sim.NewHarness(s, m.Clock)
		h.ApplyReset(2)
		rng := newRng(99)
		for cyc := 0; cyc < 400; cyc++ {
			in := map[string]uint64{}
			for _, p := range s.Design().Inputs() {
				if p.Name == m.Clock {
					continue
				}
				in[p.Name] = rng() & verilog.Mask(p.Width)
			}
			if m.HasReset {
				in["rst_n"] = 1
				if cyc%113 == 57 {
					in["rst_n"] = 0
				}
			}
			got, err := h.Cycle(in)
			if err != nil {
				t.Fatal(err)
			}
			all := map[string]uint64{}
			for k, v := range in {
				all[k] = v
			}
			for k, v := range got {
				all[k] = v
			}
			chk.Sample(all)
		}
		if !chk.Passed() {
			t.Errorf("%s: mined assertions fail on the golden DUT: %v", name, chk.Failed())
		}
	}
}

func TestMinedAssertionsCatchInjectedBug(t *testing.T) {
	// A broken ring counter (loads 0011 on reset) must violate the mined
	// one-hot property even though... the scoreboard would catch it too;
	// assertions catch it *with a named property*.
	m := dataset.ByName("ring_counter")
	mined, err := Miner{}.Mine(m.Name, portsOf(t, m), m.HasReset, 1)
	if err != nil {
		t.Fatal(err)
	}
	buggy := strings.Replace(m.Source, "4'b0001", "4'b0011", 1)
	s, err := sim.CompileAndNew(buggy, m.Top)
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(mined)
	h := sim.NewHarness(s, m.Clock)
	h.ApplyReset(2)
	for cyc := 0; cyc < 20; cyc++ {
		got, err := h.Cycle(map[string]uint64{"rst_n": 1})
		if err != nil {
			t.Fatal(err)
		}
		all := map[string]uint64{"rst_n": 1}
		for k, v := range got {
			all[k] = v
		}
		chk.Sample(all)
	}
	if chk.Passed() {
		t.Fatal("one-hot violation not caught on buggy ring counter")
	}
	foundOneHot := false
	for _, n := range chk.Failed() {
		if strings.HasPrefix(n, "onehot_") {
			foundOneHot = true
		}
	}
	if !foundOneHot {
		t.Errorf("failures %v do not include the one-hot property", chk.Failed())
	}
}

func newRng(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
}

func TestImplicationAndInvariant(t *testing.T) {
	imp := Implication{
		Label:      "full_not_empty",
		Antecedent: func(v map[string]uint64) bool { return v["full"] != 0 },
		Consequent: func(v map[string]uint64) bool { return v["empty"] == 0 },
		Text:       "assert property (full |-> !empty);",
	}
	if !imp.Check(nil, map[string]uint64{"full": 0, "empty": 1}) {
		t.Error("vacuous case rejected")
	}
	if imp.Check(nil, map[string]uint64{"full": 1, "empty": 1}) {
		t.Error("violation accepted")
	}
	inv := Invariant{
		Label: "parity", Text: "assert property (^data == p);",
		Pred: func(v map[string]uint64) bool { return v["p"] < 2 },
	}
	if !inv.Check(nil, map[string]uint64{"p": 1}) || inv.Check(nil, map[string]uint64{"p": 2}) {
		t.Error("invariant predicate wrong")
	}
}
