package main

import (
	"flag"
	"strings"
	"testing"

	"uvllm/internal/service"
)

// TestSharedFlagValidation is the table test for the experiments CLI's
// up-front flag validation, which now lives in the shared service layer
// (service.Bind + Flags.Options) used identically by cmd/uvllm and
// cmd/uvllmd.
func TestSharedFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = valid
	}{
		{"defaults", nil, ""},
		{"explicit workers and backend", []string{"-workers=4", "-backend=event"}, ""},
		{"negative workers", []string{"-workers=-2"}, "workers"},
		{"workers above bound", []string{"-workers=1000000000"}, "workers"},
		{"unknown backend", []string{"-backend=verilator"}, "backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			knobs := service.Bind(fs, service.FlagBackend|service.FlagWorkers)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse flags: %v", err)
			}
			_, err := knobs.Options()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}
