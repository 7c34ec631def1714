package core

import (
	"context"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"uvllm/internal/faultgen"
	"uvllm/internal/llm"
	"uvllm/internal/locate"
)

// patMS is Algorithm 2's PAT_MS as a regexp, the reference for
// locate.ErrChk's scanner.
var patMS = regexp.MustCompile(`UVM_ERROR @ (\d+): \S+ \[SCBD\] mismatch signal=(\w+) expected=0x([0-9a-fA-F]+) actual=0x([0-9a-fA-F]+)`)

// promptRecorder forwards to an LLM client and keeps every prompt.
type promptRecorder struct {
	llm.Client
	prompts []string
}

func (r *promptRecorder) Complete(req llm.Request) (llm.Response, error) {
	r.prompts = append(r.prompts, req.Text())
	return r.Client.Complete(req)
}

// TestErrChkMatchesPatternOnVerifyLogs runs the repair loop on a few
// functional faults, re-evaluates the candidate of every repair prompt
// (the evaluation is deterministic, so this is the UVM log the loop
// localized) and checks that ErrChk reads the same timestamps and
// signals from it as the PAT_MS regexp.
func TestErrChkMatchesPatternOnVerifyLogs(t *testing.T) {
	logs, records := 0, 0
	for _, c := range []struct {
		module string
		class  faultgen.Class
	}{
		{"counter_12bit", faultgen.FuncLogic},
		{"fifo_sync", faultgen.FuncCondition},
		{"alu", faultgen.FuncLogic},
		{"traffic_light", faultgen.FuncCondition},
	} {
		f := pickFault(t, c.module, c.class)
		m := f.Meta()
		for seed := int64(1); seed <= 2; seed++ {
			rec := &promptRecorder{Client: llm.NewOracle(llm.Knowledge{
				FaultID: f.ID, Golden: f.Golden, Class: string(f.Class),
				Complexity: m.Complexity, IsFSM: m.IsFSM,
			}, llm.DefaultProfile(), seed)}
			in := Input{
				Source: f.Source, Spec: m.Spec, Top: m.Top, Clock: m.Clock,
				RefName: m.Name, ModuleName: m.Name, Client: rec, Opts: Options{Seed: seed},
			}
			Verify(context.Background(), in)
			opts := in.Opts.withDefaults()
			for _, p := range rec.prompts {
				src, ok := repairCandidate(p)
				if !ok {
					continue
				}
				log := evaluate(nil, src, in, opts).log
				mt, ms, _ := locate.ErrChk(log, nil)
				var wantT []int
				var wantS []string
				for _, r := range patMS.FindAllStringSubmatch(log, -1) {
					records++
					ts, _ := strconv.Atoi(r[1])
					if !contains(wantT, ts) {
						wantT = append(wantT, ts)
					}
					if !contains(wantS, r[2]) {
						wantS = append(wantS, r[2])
					}
				}
				if !reflect.DeepEqual(mt, wantT) || !reflect.DeepEqual(ms, wantS) {
					t.Fatalf("%s seed %d: ErrChk = %v %q, PAT_MS regexp %v %q", f.ID, seed, mt, ms, wantT, wantS)
				}
				if len(ms) > 0 && !strings.Contains(p, "mismatch signals: "+strings.Join(ms, ", ")+"\n") {
					t.Fatalf("%s seed %d: the re-evaluated log is not the one the prompt localized", f.ID, seed)
				}
				logs++
			}
		}
	}
	if logs < 8 || records == 0 {
		t.Fatalf("checked %d logs with %d mismatch records; the runs no longer exercise localization", logs, records)
	}
	t.Logf("%d UVM logs, %d mismatch records", logs, records)
}

// repairCandidate returns the DUT source of a repair-loop prompt (one
// whose error information comes from localization), ok=false for any
// other prompt.
func repairCandidate(prompt string) (string, bool) {
	_, rest, ok := strings.Cut(prompt, "=== DUT ===\n")
	if !ok {
		return "", false
	}
	src, info, ok := strings.Cut(rest, "\n=== Error Information (")
	if !ok || !(strings.HasPrefix(info, string(llm.StageMS)) || strings.HasPrefix(info, string(llm.StageSL))) {
		return "", false
	}
	return src, true
}

func contains[T comparable](xs []T, x T) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
