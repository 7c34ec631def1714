package service

import (
	"context"
	"testing"

	"uvllm/internal/obs"
)

// TestExecuteCancelDuringProof cancels a job while its proof runs: the
// tracer cancels the context as soon as the formal check's "blast" span
// ends, after the repair loop has finished, so the cancellation can only
// be seen by the check itself. The result must report it — a proof that
// stopped on cancellation is a cancelled job, never a passed one.
func TestExecuteCancelDuringProof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := obs.NewTracer("cancel")
	tr.OnEnd = func(sp obs.SpanInfo) {
		if sp.Name == "blast" {
			cancel()
		}
	}
	root := tr.Start("job")
	spec := JobSpec{Module: "counter_12bit", Options: Options{Formal: true}}
	res := ExecuteCtx(obs.ContextWith(ctx, root), spec, DefaultServices(), nil)
	root.End()
	if res.Error != "" || !res.Success {
		t.Fatalf("golden job failed before the proof: success=%v err=%q", res.Success, res.Error)
	}
	if !res.Cancelled {
		t.Fatalf("proof stopped on cancellation but the result is not cancelled: formal=%q detail=%q",
			res.Formal, res.FormalDetail)
	}
}
