package main

import (
	"flag"
	"strings"
	"testing"

	"uvllm/internal/service"
)

// TestSharedFlagValidation is the table test for the experiments CLI's
// up-front flag validation, which now lives in the shared service layer
// (service.Bind + Options.Validate) used identically by cmd/uvllm and
// cmd/uvllmd.
func TestSharedFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = valid
	}{
		{"defaults", nil, ""},
		{"explicit workers and lanes", []string{"-workers=4", "-lanes=8", "-backend=event"}, ""},
		{"negative workers", []string{"-workers=-2"}, "workers"},
		{"negative lanes", []string{"-lanes=-1"}, "lanes"},
		{"workers above bound", []string{"-workers=1000000000"}, "workers"},
		{"lanes above bound", []string{"-lanes=1025"}, "lanes"},
		{"unknown backend", []string{"-backend=verilator"}, "backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			knobs := service.Bind(fs, service.FlagBackend|service.FlagWorkers|service.FlagLanes)
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
