package main

import (
	"flag"
	"strings"
	"testing"

	"uvllm/internal/service"
)

// TestBuildSpec is the table test for the up-front validation path:
// nonsense flag values must be rejected with a clear message before any
// pipeline stage runs. The check itself lives in the service layer
// (service.Flags.Options + service.JobSpec.Validate), shared with
// cmd/uvllmd — this exercises it through the CLI assembly.
func TestBuildSpec(t *testing.T) {
	cases := []struct {
		name    string
		args    []string // service flag args, e.g. -formal-depth=40
		module  string
		inject  string
		variant int
		mode    string
		wantErr string // "" = valid
	}{
		{"defaults", nil, "counter_12bit", "", 0, "pair", ""},
		{"complete mode", []string{"-backend=event", "-formal-depth=40"}, "counter_12bit", "FuncLogic", 3, "complete", ""},
		{"negative variant", nil, "counter_12bit", "", -1, "pair", "variant"},
		{"negative formal depth", []string{"-formal-depth=-5"}, "counter_12bit", "", 0, "pair", "formal-depth"},
		{"formal depth above bound", []string{"-formal-depth=1000000000"}, "counter_12bit", "", 0, "pair", "formal-depth"},
		{"unknown mode", nil, "counter_12bit", "", 0, "partial", "mode"},
		{"unknown backend", []string{"-backend=quantum"}, "counter_12bit", "", 0, "pair", "backend"},
		{"unknown module", nil, "warp_core", "", 0, "pair", "-list"},
		{"unknown fault class", nil, "counter_12bit", "Gremlins", 0, "pair", "fault class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			knobs := service.Bind(fs, service.FlagBackend|service.FlagCover|service.FlagFormal)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse flags: %v", err)
			}
			_, err := buildSpec(knobs, tc.module, tc.inject, tc.variant, "", 1, tc.mode)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending input %q", err, tc.wantErr)
			}
		})
	}
}
