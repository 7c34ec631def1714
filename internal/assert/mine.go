package assert

import (
	"fmt"
	"math/rand"
	"sort"

	"uvllm/internal/refmodel"
	"uvllm/internal/verilog"
)

// Miner proposes candidate assertions from observed golden behavior —
// the offline stand-in for the paper's "AI-driven assertions": instead of
// asking a model to write SVA from the specification, properties are
// mined from the reference model's trace and kept only if they hold on
// every observed cycle (Daikon-style invariant detection).
type Miner struct {
	Cycles int // trace length (default 2000)
}

// PortShape describes one DUT port for the miner.
type PortShape struct {
	Name  string
	Width int
	Input bool
}

// Mine drives the golden reference model with constrained-random stimulus
// and returns every candidate assertion that survived the whole trace.
func (mn Miner) Mine(modelName string, ports []PortShape, hasReset bool, seed int64) ([]Assertion, error) {
	cycles := mn.Cycles
	if cycles == 0 {
		cycles = 2000
	}
	model, err := refmodel.New(modelName)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	var outputs []PortShape
	for _, p := range ports {
		if !p.Input {
			outputs = append(outputs, p)
		}
	}

	// Candidate pool, pruned as the trace disproves them.
	type candState struct {
		a     Assertion
		alive bool
	}
	var cands []*candState
	add := func(a Assertion) { cands = append(cands, &candState{a: a, alive: true}) }

	// Bounds start at 0 and grow to the observed maximum; emitted later.
	maxSeen := map[string]uint64{}

	for _, o := range outputs {
		if o.Width >= 2 && o.Width <= 16 {
			add(OneHot{Signal: o.Name})
			add(OneHot{Signal: o.Name, AllowZero: true})
		}
	}
	// Mutex candidates over all 1-bit output pairs.
	var bits1 []string
	for _, o := range outputs {
		if o.Width == 1 {
			bits1 = append(bits1, o.Name)
		}
	}
	sort.Strings(bits1)
	for i := 0; i < len(bits1); i++ {
		for j := i + 1; j < len(bits1); j++ {
			add(Mutex{A: bits1[i], B: bits1[j]})
		}
	}

	// Reset-value candidates: probe the model once under reset.
	resetVals := map[string]uint64{}
	if hasReset {
		probe, err := refmodel.New(modelName)
		if err == nil {
			in := map[string]uint64{}
			for _, p := range ports {
				if p.Input {
					in[p.Name] = 0
				}
			}
			in["rst_n"] = 0
			out := probe.Step(in)
			for name, v := range out {
				resetVals[name] = v
				add(ResetValue{Reset: "rst_n", Signal: name, Value: v})
			}
		}
	}

	// Drive the trace.
	model.Reset()
	for cyc := 0; cyc < cycles; cyc++ {
		in := map[string]uint64{}
		for _, p := range ports {
			if !p.Input {
				continue
			}
			in[p.Name] = rng.Uint64() & verilog.Mask(p.Width)
		}
		if hasReset {
			if cyc < 2 || cyc%173 == 91 {
				in["rst_n"] = 0
			} else {
				in["rst_n"] = 1
			}
		}
		out := model.Step(in)
		all := map[string]uint64{}
		for k, v := range in {
			all[k] = v
		}
		for k, v := range out {
			all[k] = v
		}
		for name, v := range out {
			if v > maxSeen[name] {
				maxSeen[name] = v
			}
		}
		for _, c := range cands {
			if c.alive && !c.a.Check(nil, all) {
				c.alive = false
			}
		}
	}

	var mined []Assertion
	for _, c := range cands {
		if c.alive {
			mined = append(mined, c.a)
		}
	}
	// Bound assertions: only interesting when the observed maximum is
	// strictly below the type's range (i.e., the invariant carries
	// information), with headroom doubled to avoid overfitting the trace.
	for _, o := range outputs {
		m := maxSeen[o.Name]
		full := verilog.Mask(o.Width)
		if m < full/2 && o.Width >= 3 {
			limit := m*2 + 1
			if limit < full {
				mined = append(mined, Bound{Signal: o.Name, Limit: limit})
			}
		}
	}
	sort.Slice(mined, func(i, j int) bool { return mined[i].Name() < mined[j].Name() })
	return mined, nil
}

// Describe renders a mined assertion set as an SVA-flavored block.
func Describe(as []Assertion) string {
	out := ""
	for _, a := range as {
		out += fmt.Sprintf("// %s\n%s\n", a.Name(), a.Describe())
	}
	return out
}
