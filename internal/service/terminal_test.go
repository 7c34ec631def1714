package service

import (
	"bufio"
	"context"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
)

// sseData reads the data lines of an SSE stream until it closes.
func sseData(sc *bufio.Scanner) []string {
	var out []string
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			out = append(out, line)
		}
	}
	return out
}

// TestTerminalJobCompact checks what a job keeps once it reaches each
// terminal state: its encoded event history is exactly as long as it
// needs to be (len == cap), its context, cancel func and notify channel
// are released, and an SSE replay from 0 reads the same frames as a
// stream that was attached while the job was still live.
func TestTerminalJobCompact(t *testing.T) {
	for _, want := range []Status{StatusDone, StatusFailed, StatusCancelled, StatusDrained} {
		t.Run(string(want), func(t *testing.T) {
			s, ts := testServer(t, RunnerConfig{Workers: 1, QueueLimit: 4}, nil)
			gate := make(chan struct{})
			started := make(chan struct{}, 2)
			s.runner.exec = func(_ context.Context, spec JobSpec, _ Services, emit func(Event)) Result {
				started <- struct{}{}
				// Six events in all for a job that runs, so a history
				// grown by append would have spare capacity.
				for i := 1; i <= 3; i++ {
					emit(Event{Kind: EventIteration, Iteration: i, Score: 0.5})
				}
				if spec.Tenant == "blocker" {
					<-gate
				}
				return Result{Success: spec.Tenant != string(StatusFailed), Stage: "stub"}
			}
			blocker, err := s.runner.Submit(JobSpec{Module: "adder_8bit", Tenant: "blocker"})
			if err != nil {
				t.Fatalf("submit blocker: %v", err)
			}
			<-started
			j, err := s.runner.Submit(JobSpec{Module: "adder_8bit", Tenant: string(want)})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}

			resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
			if err != nil {
				t.Fatalf("GET events: %v", err)
			}
			defer resp.Body.Close()
			// Read the queued event now, so this stream is attached while
			// the job is live, and the rest as it arrives.
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() && !strings.HasPrefix(sc.Text(), "data: ") {
			}
			first := sc.Text()
			live := make(chan []string, 1)
			go func() { live <- append([]string{first}, sseData(sc)...) }()

			switch want {
			case StatusCancelled:
				s.runner.Cancel(j.ID)
			case StatusDrained:
				drained := make(chan error, 1)
				go func() { drained <- s.Drain(context.Background()) }()
				waitStatus(t, j, StatusDrained)
				defer func() {
					if err := <-drained; err != nil {
						t.Errorf("drain: %v", err)
					}
				}()
			}
			close(gate)
			waitStatus(t, j, want)
			waitStatus(t, blocker, StatusDone)

			j.mu.Lock()
			n, c := len(j.hist), cap(j.hist)
			released := j.ctx == nil && j.cancel == nil && j.notify == closedNotify
			j.mu.Unlock()
			if n != c {
				t.Errorf("finished job keeps a %d-byte history in a %d-byte array", n, c)
			}
			if !released {
				t.Error("finished job still holds its context, cancel func or own notify channel")
			}

			liveFrames := <-live
			replay, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
			if err != nil {
				t.Fatalf("GET events replay: %v", err)
			}
			defer replay.Body.Close()
			if got := sseData(bufio.NewScanner(replay.Body)); !reflect.DeepEqual(got, liveFrames) {
				t.Errorf("SSE replay from 0 differs from the live stream:\nlive:   %q\nreplay: %q", liveFrames, got)
			}
			evs, _, _ := j.EventsSince(0)
			if len(liveFrames) != len(evs) {
				t.Fatalf("live stream read %d frames, job has %d events", len(liveFrames), len(evs))
			}
			if last := evs[len(evs)-1]; last.Kind != EventTerminal || last.Status != want {
				t.Errorf("history ends %+v, want a %s terminal event", last, want)
			}
		})
	}
}

// TestExecuteSharesRestoredGolden checks that a result whose repair
// restored the golden keeps no copy of it: Final points at the dataset
// module's own source.
func TestExecuteSharesRestoredGolden(t *testing.T) {
	m := dataset.ByName("adder_8bit")
	res := Execute(JobSpec{Module: m.Name, Inject: "FuncLogic"}, testServices(), nil)
	if !res.Success || res.Final != m.Source {
		t.Fatalf("adder_8bit FuncLogic: success=%v, final equals golden=%v; the test needs a repair that restores the golden",
			res.Success, res.Final == m.Source)
	}
	if unsafe.StringData(res.Final) != unsafe.StringData(m.Source) {
		t.Error("Result.Final holds its own copy of the golden source")
	}
}

// TestFinishedJobFootprint bounds the live heap a finished job keeps
// while the runner keeps every finished job (ResultTTL 0, cmd/uvllmd's
// default): at most 1.4 KB per job over the benchmark mix of inject
// jobs. A warm-up round fills the compile cache, the trace memo and the
// fault memo first; the measured rounds repeat its jobs, so they hit
// every cache and what the heap gains is what the finished jobs keep.
func TestFinishedJobFootprint(t *testing.T) {
	var specs []JobSpec
	variant := map[string]int{}
	for _, f := range faultgen.Benchmark() {
		cell := f.Module + "/" + string(f.Class)
		specs = append(specs, JobSpec{Module: f.Module, Inject: string(f.Class), Variant: variant[cell]})
		variant[cell]++
	}
	r := NewRunner(RunnerConfig{Workers: 2, QueueLimit: len(specs), Services: testServices()})
	defer r.Drain(context.Background())
	round := func() {
		jobs := make([]*Job, len(specs))
		for i, spec := range specs {
			j, err := r.Submit(spec)
			if err != nil {
				t.Fatalf("submit %+v: %v", spec, err)
			}
			jobs[i] = j
		}
		for _, j := range jobs {
			if s, _ := j.WaitTerminal(context.Background()); s != StatusDone && s != StatusFailed {
				t.Fatalf("job %s ended %s", j.ID, s)
			}
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	round()
	before := liveHeap()
	const rounds = 4 // 1324 measured jobs
	for i := 0; i < rounds; i++ {
		round()
	}
	after := liveHeap()
	perJob := (float64(after) - float64(before)) / float64(rounds*len(specs))
	t.Logf("%.0f B of live heap per finished job", perJob)
	if perJob > 1400 {
		t.Errorf("a finished job keeps %.0f B of live heap, want at most 1400", perJob)
	}
}
