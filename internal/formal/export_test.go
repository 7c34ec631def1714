package formal

import (
	"fmt"

	"uvllm/internal/sim"
)

// Fixture sources shared with the external test package.
const (
	AccAdd = accAdd
	AccSub = accSub
)

// Correspondence runs the equivalence miter's signal correspondence on
// its own and returns the proved state bits, keyed by a's signal name
// (memory words as name[word]). With filter unset the refinement starts
// from every reset-agreeing candidate, skipping the random run.
func Correspondence(a, b *sim.Program, clock string, filter bool) (map[string]uint64, error) {
	opts := Options{Clock: clock}
	u, err := newMiter(NewAIG(), a, b, opts, true)
	if err != nil {
		return nil, err
	}
	cs := u.candidates()
	if filter {
		cs = u.simulate(cs)
	}
	proved, _, err := u.refine(cs, u.ma.FreshInputs(), opts)
	out := map[string]uint64{}
	for _, c := range proved {
		name := u.ma.sigs[c.sa].Name
		if c.word >= 0 {
			name = fmt.Sprintf("%s[%d]", name, c.word)
		}
		out[name] = c.mask
	}
	return out, err
}
