package uvm

import (
	"fmt"
	"sort"
	"strings"

	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// Coverage collects the two coverage models the paper's UVM stage relies
// on for its "nearly 100% test coverage" claim:
//
//   - functional input coverage: four value bins per input port
//     (zero, max, low half, high half);
//   - toggle coverage: every output bit observed at both 0 and 1.
//
// State is indexed by port position (declaration order), so a row-form
// run samples without name lookups.
type Coverage struct {
	inputs  []sim.PortInfo
	outputs []sim.PortInfo
	bins    [][4]bool // per input: zero/max/low/high hit
	seen0   []uint64  // per output: bits seen at 0
	seen1   []uint64  // per output: bits seen at 1
}

// NewCoverage builds a collector for the design's top-level ports.
func NewCoverage(d *sim.Design) *Coverage { return newCoverage(d.Inputs(), d.Outputs()) }

func newCoverage(inputs, outputs []sim.PortInfo) *Coverage {
	return &Coverage{
		inputs:  append([]sim.PortInfo(nil), inputs...),
		outputs: append([]sim.PortInfo(nil), outputs...),
		bins:    make([][4]bool, len(inputs)),
		seen0:   make([]uint64, len(outputs)),
		seen1:   make([]uint64, len(outputs)),
	}
}

// inputColumns maps a row layout onto the collector: entry j is the
// input index of ports[j], or -1 when the design has no such input.
func (c *Coverage) inputColumns(ports []sim.PortInfo) []int {
	cols := make([]int, len(ports))
	for j, p := range ports {
		cols[j] = -1
		for k, q := range c.inputs {
			if q.Name == p.Name {
				cols[j] = k
				break
			}
		}
	}
	return cols
}

// sampleRow bins a row of input values; cols comes from inputColumns for
// the row's layout.
func (c *Coverage) sampleRow(cols []int, row []uint64) {
	for j, k := range cols {
		if k >= 0 {
			c.bin(k, row[j])
		}
	}
}

// sampleOutputs records an output row in declaration order.
func (c *Coverage) sampleOutputs(out []uint64) {
	for k, v := range out {
		c.toggle(k, v)
	}
}

func (c *Coverage) bin(k int, v uint64) {
	max := verilog.Mask(c.inputs[k].Width)
	b := &c.bins[k]
	switch {
	case v == 0:
		b[0] = true
	case v == max:
		b[1] = true
	}
	if v <= max/2 {
		b[2] = true
	} else {
		b[3] = true
	}
}

func (c *Coverage) toggle(k int, v uint64) {
	m := verilog.Mask(c.outputs[k].Width)
	c.seen1[k] |= v & m
	c.seen0[k] |= ^v & m
}

// Percent returns combined coverage in [0,100]: the average of input bin
// coverage and output toggle coverage.
func (c *Coverage) Percent() float64 {
	binTotal, binHit := 0, 0
	for k, p := range c.inputs {
		n := 4
		if p.Width == 1 {
			n = 2 // zero/max only for single-bit ports
		}
		binTotal += n
		for i := 0; i < n; i++ {
			if c.bins[k][i] {
				binHit++
			}
		}
	}
	togTotal, togHit := 0, 0
	for k, p := range c.outputs {
		togTotal += 2 * p.Width
		m := verilog.Mask(p.Width)
		togHit += popcount(c.seen0[k]&m) + popcount(c.seen1[k]&m)
	}
	total := binTotal + togTotal
	if total == 0 {
		return 0
	}
	return 100 * float64(binHit+togHit) / float64(total)
}

// Report renders a human-readable coverage table.
func (c *Coverage) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "coverage: %.1f%%\n", c.Percent())
	order := make([]int, len(c.inputs))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return c.inputs[order[i]].Name < c.inputs[order[j]].Name })
	for _, k := range order {
		bin := c.bins[k]
		fmt.Fprintf(&b, "  input %-12s bins[zero=%v max=%v low=%v high=%v]\n", c.inputs[k].Name, bin[0], bin[1], bin[2], bin[3])
	}
	return b.String()
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}
