package core

import (
	"testing"

	"uvllm/internal/faultgen"
)

// TestVerifyThreadsStructuralCoverage checks the Options.Cover knob end
// to end: with it set the pipeline reports the best structural coverage
// its UVM runs observed, and with it clear (the default) nothing is
// collected.
func TestVerifyThreadsStructuralCoverage(t *testing.T) {
	f := pickFault(t, "counter_12bit", faultgen.FuncLogic)

	on := verifyFault(t, f, 1, Options{Cover: true})
	if on.StructCoverage <= 0 || on.StructCoverage > 100 {
		t.Fatalf("StructCoverage = %v with coverage enabled", on.StructCoverage)
	}
	// Port-level coverage is collected either way.
	if on.Coverage <= 0 {
		t.Fatalf("port coverage missing: %v", on.Coverage)
	}

	off := verifyFault(t, f, 1, Options{})
	if off.StructCoverage != 0 {
		t.Fatalf("StructCoverage = %v without the knob; want 0", off.StructCoverage)
	}
	// The knob is observational: it must not change the verification
	// verdict or the best pass rate.
	if on.Success != off.Success || on.PassRate != off.PassRate {
		t.Fatalf("coverage collection changed the outcome: success %v/%v pass %v/%v",
			on.Success, off.Success, on.PassRate, off.PassRate)
	}
}
