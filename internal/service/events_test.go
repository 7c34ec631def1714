package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"uvllm/internal/faultgen"
)

// jobEventsDigest is the sha256 of the span-free event histories of
// TestJobEventsPinned's 111 jobs, recorded when core.Verify still
// reported iterations through a progress callback.
const jobEventsDigest = "6c28253ebfdc4cc772df21d07b3006a84086f8cf6749da99280ae4049c9d3d17"

// nonSpanEvents returns a finished job's events without its span events,
// re-numbered densely from 0.
func nonSpanEvents(j *Job) []Event {
	evs, _, _ := j.EventsSince(0)
	var out []Event
	for _, ev := range evs {
		if ev.Kind == EventSpan {
			continue
		}
		ev.Seq = len(out)
		out = append(out, ev)
	}
	return out
}

// TestJobEventsPinned pins what a job streams apart from its spans. It
// runs every third benchmark instance (111 jobs) through a one-worker
// Runner, instance i with oracle seed 1 + i%8 and options knobs[i%4]
// (plain, cover, formal or trace), and hashes each history with the
// span events left out. A traced job's other events must equal the same
// job's events when it runs untraced.
func TestJobEventsPinned(t *testing.T) {
	r := NewRunner(RunnerConfig{Workers: 1, Services: testServices()})
	defer r.Drain(context.Background())
	knobs := []Options{{}, {Cover: true}, {Formal: true}, {Trace: true}}
	submit := func(spec JobSpec) *Job {
		j, err := r.Submit(spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		return j
	}
	var jobs []*Job
	untraced := map[*Job]*Job{}
	variant := map[string]int{}
	for i, f := range faultgen.Benchmark() {
		cell := f.Module + "/" + string(f.Class)
		spec := JobSpec{Module: f.Module, Inject: string(f.Class), Variant: variant[cell]}
		variant[cell]++
		if i%3 != 0 {
			continue
		}
		spec.Seed = int64(1 + i%8)
		spec.Options = knobs[i%4]
		j := submit(spec)
		jobs = append(jobs, j)
		if spec.Options.Trace {
			spec.Options.Trace = false
			untraced[j] = submit(spec)
		}
	}

	h := sha256.New()
	var formal, rollbacks, structCov int
	for _, j := range jobs {
		if _, err := j.WaitTerminal(context.Background()); err != nil {
			t.Fatalf("wait %s: %v", j.ID, err)
		}
		evs := nonSpanEvents(j)
		for _, ev := range evs {
			enc, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("%s: encode %+v: %v", j.ID, ev, err)
			}
			h.Write(append(enc, '\n'))
			switch {
			case ev.Kind == EventFormal:
				formal++
			case ev.Rollback:
				rollbacks++
			}
			if ev.StructCoverage != 0 {
				structCov++
			}
		}
		if plain, ok := untraced[j]; ok {
			if _, err := plain.WaitTerminal(context.Background()); err != nil {
				t.Fatalf("wait %s: %v", plain.ID, err)
			}
			if want := nonSpanEvents(plain); !reflect.DeepEqual(evs, want) {
				t.Errorf("%s (%s %s/%d): traced events differ from the untraced run:\n got %+v\nwant %+v",
					j.ID, j.Spec.Module, j.Spec.Inject, j.Spec.Variant, evs, want)
			}
		}
	}
	t.Logf("%d jobs: %d formal events, %d rollbacks, %d struct-coverage values", len(jobs), formal, rollbacks, structCov)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != jobEventsDigest {
		t.Errorf("event histories digest = %s, want %s", got, jobEventsDigest)
	}
}
