// Package psim is the bit-parallel ("P64") lane simulator: it evaluates
// up to 64 independent stimulus streams per machine word over the blasted
// single-cycle AIG of a compiled design. internal/formal's cycle circuit
// (formal.NewCircuit) replays the exact harness phase schedule — input
// apply, clock-low settle, posedge batch, NBA commit, negedge batch —
// into an and-inverter graph; psim compiles that graph into a
// straight-line word evaluator (AND = &, inversion = ^) and keeps the
// architectural state bit-sliced, so one sweep advances 64 lanes by one
// full cycle. Lane stimulus crosses from the lane-sliced to the
// bit-sliced layout through BitSlice, once per port per cycle: 8x8 bit
// blocks up to 16 bits, the 64x64 Transpose64 above. A lane's outputs
// and state cross back on demand through the per-lane bit gather Lane;
// the engine records no waveform.
//
// The subset discipline mirrors internal/formal: designs the bit-blaster
// cannot model (event-scheduler fallback, oversized memories, edge
// triggers on signals other than the clock and the conventional reset)
// are reported via formal.ErrUnsupported, and the lane consumers run
// them on sim.Batch, the other sim.LaneEngine, whose lanes are standalone
// Harnesses. On the supported subset every lane's outputs and state are
// identical to the standalone Harness's, and so to sim.Batch's (enforced
// by rtlgen's DiffLanes differential gate and fuzz target).
package psim

import (
	"uvllm/internal/formal"
	"uvllm/internal/sim"
)

// Supported reports whether p can run bit-parallel under the given clock
// name: nil, or a formal.ErrUnsupported-wrapped reason. It is the same
// check NewEngine performs.
func Supported(p *sim.Program, clock string) error {
	_, err := formal.NewCircuit(p, clock, formal.Options{})
	return err
}
