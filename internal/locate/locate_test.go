package locate

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

const sampleLog = `UVM_INFO @ 0: uvm_test_top.env [RNTST] running test on accu (seed 1)
UVM_ERROR @ 12: uvm_test_top.env.scoreboard [SCBD] mismatch signal=sum expected=0x1a actual=0x18
UVM_ERROR @ 12: uvm_test_top.env.scoreboard [SCBD] mismatch signal=carry expected=0x1 actual=0x0
UVM_ERROR @ 47: uvm_test_top.env.scoreboard [SCBD] mismatch signal=sum expected=0x2 actual=0x0
UVM_INFO @ 200: uvm_test_top.env.scoreboard [SCBD] pass_rate=93.00% (186/200) coverage=87.5%
`

func TestErrChk(t *testing.T) {
	w := sim.NewWaveform([]string{"a", "b"})
	for i := 0; i < 50; i++ {
		w.Record(map[string]uint64{"a": uint64(i), "b": uint64(2 * i)})
	}
	mt, ms, iv := ErrChk(sampleLog, w)
	if len(mt) != 2 || mt[0] != 12 || mt[1] != 47 {
		t.Errorf("MT = %v", mt)
	}
	if len(ms) != 2 || ms[0] != "sum" || ms[1] != "carry" {
		t.Errorf("MS = %v", ms)
	}
	if iv["a"] != 12 || iv["b"] != 24 {
		t.Errorf("IV = %v", iv)
	}
}

// patMS is PAT_MS as the regexp it is written as in Algorithm 2: the
// reference the hand-written scanner must agree with.
var patMS = regexp.MustCompile(`UVM_ERROR @ (\d+): \S+ \[SCBD\] mismatch signal=(\w+) expected=0x([0-9a-fA-F]+) actual=0x([0-9a-fA-F]+)`)

// msMatch is one PAT_MS record: its timestamp and signal captures and
// the offset just past it.
type msMatch struct {
	ts, sig string
	end     int
}

// scanAll collects every record nextMS finds, in order.
func scanAll(log string) []msMatch {
	var out []msMatch
	for i := 0; ; {
		ts, sig, end, ok := nextMS(log, i)
		if !ok {
			return out
		}
		out = append(out, msMatch{ts, sig, end})
		i = end
	}
}

// regexpAll collects every record patMS finds, in order.
func regexpAll(log string) []msMatch {
	var out []msMatch
	for _, m := range patMS.FindAllStringSubmatchIndex(log, -1) {
		out = append(out, msMatch{log[m[2]:m[3]], log[m[4]:m[5]], m[1]})
	}
	return out
}

// refErrChk is ErrChk's MT and MS computed with the regexp.
func refErrChk(log string) (mt []int, ms []string) {
	seenT := map[int]bool{}
	seenS := map[string]bool{}
	for _, m := range patMS.FindAllStringSubmatch(log, -1) {
		t, _ := strconv.Atoi(m[1])
		if !seenT[t] {
			seenT[t] = true
			mt = append(mt, t)
		}
		if !seenS[m[2]] {
			seenS[m[2]] = true
			ms = append(ms, m[2])
		}
	}
	return mt, ms
}

// FuzzErrChkMatchesPattern checks the scanner against the PAT_MS regexp:
// the same records at the same offsets with the same captures, and the
// same ErrChk timestamps and signals. Run it longer with
//
//	go test ./internal/locate -run='^$' -fuzz=FuzzErrChkMatchesPattern -fuzztime=30s
func FuzzErrChkMatchesPattern(f *testing.F) {
	rec := func(ts, comp, sig, exp, act string) string {
		return "UVM_ERROR @ " + ts + ": " + comp + " [SCBD] mismatch signal=" + sig + " expected=0x" + exp + " actual=0x" + act
	}
	whole := rec("13", "uvm_test_top.env.scoreboard", "q", "3", "4")
	for _, s := range []string{
		sampleLog,
		rec("1", "a", "x", "1", "2") + rec("2", "b", "y", "3", "4"), // no newline between records
		rec("5", "a", "x", "1", "2")[:40] + whole,                   // truncated, then whole
		rec("7", "uvm\vtop", "s", "1", "0"),                         // \v is not \s in Go
		rec("7", "top.\u00e9l\u00e8ve", "s", "1", "0"),              // non-ASCII
		rec("7", "a\xffb\xc3", "s", "1", "0"),                       // invalid UTF-8
		rec("99999999999999999999", "c", "s", "1", "0"),             // Atoi overflow
		rec("8", "c", "sum_1", "aBcD", "Ef01") + "\n",               // mixed-case hex
		rec("9", "c\td", "s", "1", "0") + "\n" + whole,              // \t ends the component
		"UVM_ERROR @ UVM_ERROR @ 3: c [SCBD] mismatch signal=s expected=0x1 actual=0xg",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, log string) {
		if got, want := scanAll(log), regexpAll(log); !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner records %q, regexp %q", got, want)
		}
		mt, ms, _ := ErrChk(log, nil)
		wantT, wantS := refErrChk(log)
		if !reflect.DeepEqual(mt, wantT) || !reflect.DeepEqual(ms, wantS) {
			t.Fatalf("ErrChk = %v %q, regexp %v %q", mt, ms, wantT, wantS)
		}
	})
}

func TestErrChkNoMismatch(t *testing.T) {
	mt, ms, iv := ErrChk("UVM_INFO @ 0: all good", nil)
	if len(mt) != 0 || len(ms) != 0 || iv != nil {
		t.Errorf("got %v %v %v", mt, ms, iv)
	}
}

const dfgSrc = `module m(
    input clk,
    input rst_n,
    input [7:0] a,
    input [7:0] b,
    output reg [7:0] y
);
    wire [7:0] mid;
    wire [7:0] other;
    assign mid = a + b;
    assign other = a ^ b;
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) begin
            y <= 8'd0;
        end else begin
            y <= mid;
        end
    end
endmodule
`

func TestBuildDFGAndSlice(t *testing.T) {
	f := verilog.MustParse(dfgSrc)
	g := BuildDFG(f)
	if len(g.Defs["y"]) != 2 {
		t.Fatalf("y has %d defs, want 2", len(g.Defs["y"]))
	}
	lines, expanded := g.Slice([]string{"y"}, 0)
	// y's defs on lines 14 and 16, mid's def on line 10. other (line 11)
	// must NOT be in the slice.
	want := map[int]bool{10: true, 14: true, 16: true}
	for _, ln := range lines {
		if ln == 11 {
			t.Error("slice included unrelated line 11 (other)")
		}
		delete(want, ln)
	}
	if len(want) != 0 {
		t.Errorf("slice missing lines %v; got %v", want, lines)
	}
	if len(expanded) != 1 || expanded[0] != "mid" {
		t.Errorf("expanded = %v, want [mid]", expanded)
	}
}

func TestSliceControlDependencies(t *testing.T) {
	f := verilog.MustParse(dfgSrc)
	g := BuildDFG(f)
	// rst_n is a control dependency of y; it has no defs (input) so it
	// contributes no lines but must not break traversal.
	lines, _ := g.Slice([]string{"y"}, 2)
	if len(lines) != 2 {
		t.Errorf("maxLines not respected: %v", lines)
	}
}

func TestDFGInstanceConnections(t *testing.T) {
	src := `module sub(input [7:0] p, output [7:0] q);
    assign q = p + 8'd1;
endmodule
module top(input [7:0] x, output [7:0] y);
    wire [7:0] m;
    sub u1 (.p(x), .q(m));
    assign y = m;
endmodule
`
	f := verilog.MustParse(src)
	g := BuildDFG(f)
	lines, expanded := g.Slice([]string{"y"}, 0)
	// The slice must pass through the instance boundary into sub.
	joined := strings.Trim(strings.Join(strings.Fields(strings.Trim(strings.Join(func() []string {
		var s []string
		for _, l := range lines {
			s = append(s, string(rune('0'+l)))
		}
		return s
	}(), " "), " ")), " "), " ")
	_ = joined
	if len(lines) < 3 {
		t.Errorf("slice too small across hierarchy: %v (expanded %v)", lines, expanded)
	}
	foundQ := false
	for _, e := range expanded {
		if e == "q" || e == "p" {
			foundQ = true
		}
	}
	if !foundQ {
		t.Errorf("expansion did not cross instance boundary: %v", expanded)
	}
}

func TestErrInfoFetchModes(t *testing.T) {
	w := sim.NewWaveform([]string{"a", "b"})
	for i := 0; i < 50; i++ {
		w.Record(map[string]uint64{"a": uint64(i), "b": 0})
	}
	log := `UVM_ERROR @ 12: uvm_test_top.env.scoreboard [SCBD] mismatch signal=y expected=0x1 actual=0x0`

	// Below threshold: MS mode only.
	info := ErrInfoFetch(dfgSrc, log, w, 1, 4)
	if info.SL || len(info.SuspiciousLines) != 0 {
		t.Errorf("iteration 1 should be MS-only: %+v", info)
	}
	text := info.Format(dfgSrc)
	if !strings.Contains(text, "mismatch signals: y") {
		t.Errorf("MS format missing signals:\n%s", text)
	}
	if strings.Contains(text, "suspicious lines") {
		t.Error("MS format leaked SL info")
	}

	// At threshold: SL mode.
	info = ErrInfoFetch(dfgSrc, log, w, 4, 4)
	if !info.SL || len(info.SuspiciousLines) == 0 {
		t.Fatalf("iteration 4 should include the slice: %+v", info)
	}
	text = info.Format(dfgSrc)
	if !strings.Contains(text, "suspicious lines") || !strings.Contains(text, "L") {
		t.Errorf("SL format missing lines:\n%s", text)
	}
}

func TestErrInfoFormatEmpty(t *testing.T) {
	info := ErrInfo{}
	if !strings.Contains(info.Format(""), "no scoreboard mismatches") {
		t.Error("empty info format wrong")
	}
}
