package uvm

import (
	"strings"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/sim"
)

func designFor(t *testing.T, name string) *sim.Design {
	t.Helper()
	m := dataset.ByName(name)
	s, err := sim.CompileAndNew(m.Source, m.Top)
	if err != nil {
		t.Fatal(err)
	}
	return s.Design()
}

// sample bins one transaction, given as name maps, through the row
// samplers Env.Run uses: inputs by their row columns (a name the
// collector lacks bins nothing), outputs in declaration order (a
// missing output reads 0).
func sample(c *Coverage, in, out map[string]uint64) {
	var ports []sim.PortInfo
	var row []uint64
	for name, v := range in {
		ports = append(ports, sim.PortInfo{Name: name})
		row = append(row, v)
	}
	c.sampleRow(c.inputColumns(ports), row)
	outRow := make([]uint64, len(c.outputs))
	for k, p := range c.outputs {
		outRow[k] = out[p.Name]
	}
	c.sampleOutputs(outRow)
}

func TestCoverageBins(t *testing.T) {
	d := designFor(t, "adder_8bit")
	c := NewCoverage(d)
	if c.Percent() != 0 {
		t.Error("fresh collector must be 0%")
	}
	// Hit zero bin only.
	sample(c, map[string]uint64{"a": 0, "b": 0, "cin": 0}, map[string]uint64{"sum": 0, "cout": 0})
	p1 := c.Percent()
	if p1 <= 0 {
		t.Fatal("no coverage after a sample")
	}
	// Max values raise coverage further.
	sample(c, map[string]uint64{"a": 255, "b": 255, "cin": 1}, map[string]uint64{"sum": 0xFF, "cout": 1})
	if c.Percent() <= p1 {
		t.Error("coverage did not grow with new bins")
	}
}

func TestCoverageToggleBothPolarities(t *testing.T) {
	d := designFor(t, "gray_code")
	c := NewCoverage(d)
	// Same output twice: only one polarity of each bit seen.
	sample(c, map[string]uint64{"bin": 0}, map[string]uint64{"gray": 0})
	sample(c, map[string]uint64{"bin": 0}, map[string]uint64{"gray": 0})
	half := c.Percent()
	sample(c, map[string]uint64{"bin": 15}, map[string]uint64{"gray": 0xF})
	if c.Percent() <= half {
		t.Error("toggling the other polarity must raise coverage")
	}
}

func TestCoverageReportFormat(t *testing.T) {
	d := designFor(t, "mux4")
	c := NewCoverage(d)
	sample(c, map[string]uint64{"sel": 0, "d0": 0, "d1": 0, "d2": 0, "d3": 0}, map[string]uint64{"y": 0})
	rep := c.Report()
	if !strings.Contains(rep, "coverage:") || !strings.Contains(rep, "input sel") {
		t.Errorf("report malformed:\n%s", rep)
	}
}
