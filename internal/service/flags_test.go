package service

import (
	"flag"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestBindMask checks that each selector registers exactly its canonical
// flags, so a command binding a subset neither gains surprise flags nor
// loses the ones it historically had.
func TestBindMask(t *testing.T) {
	cases := []struct {
		name string
		mask FlagMask
		want []string
	}{
		{"backend only", FlagBackend, []string{"backend"}},
		{"formal set", FlagFormal, []string{"formal", "formal-depth", "induction"}},
		{"lanes only", FlagLanes, []string{"lanes"}},
		{"cli set", FlagBackend | FlagCover | FlagFormal, []string{"backend", "cover", "formal", "formal-depth", "induction"}},
		{"all", FlagAll, []string{"backend", "cover", "formal", "formal-depth", "induction", "lanes", "workers"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			Bind(fs, tc.mask)
			var got []string
			fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
			if len(got) != len(tc.want) {
				t.Fatalf("registered %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("registered %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestFlagsOptions checks the parse-then-validate round trip: canonical
// defaults, explicit values, and rejection with the offending flag named.
func TestFlagsOptions(t *testing.T) {
	compiled := Options{Backend: "compiled"}
	cases := []struct {
		name      string
		args      []string
		want      Options
		wantLanes int
		wantErr   string
	}{
		{"defaults", nil, compiled, 0, ""},
		{"full set", []string{"-backend=event", "-cover", "-formal", "-induction", "-formal-depth=32", "-lanes=8", "-workers=4"},
			Options{Backend: "event", Cover: true, Formal: true, Induction: true, FormalDepth: 32, Workers: 4}, 8, ""},
		{"bad backend", []string{"-backend=ncsim"}, Options{}, 0, "backend"},
		{"bad depth", []string{"-formal-depth=-2"}, Options{}, 0, "formal-depth"},
		{"negative lanes", []string{"-lanes=-3"}, Options{}, 0, "lanes"},
		{"lanes at bound", []string{fmt.Sprintf("-lanes=%d", MaxLanes)}, compiled, MaxLanes, ""},
		{"lanes above bound", []string{fmt.Sprintf("-lanes=%d", MaxLanes+1)}, Options{}, 0, "lanes"},
		{"lanes max int", []string{fmt.Sprintf("-lanes=%d", math.MaxInt)}, Options{}, 0, "lanes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			f := Bind(fs, FlagAll)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse: %v", err)
			}
			got, err := f.Options()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid flags rejected: %v", err)
			}
			if got != tc.want || f.Lanes != tc.wantLanes {
				t.Fatalf("Options = %+v, lanes %d; want %+v, lanes %d", got, f.Lanes, tc.want, tc.wantLanes)
			}
		})
	}
}

// TestUnboundKnobsZero checks that knobs outside the mask resolve to the
// usable zero value (compiled backend via the unparsed default).
func TestUnboundKnobsZero(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Bind(fs, FlagLanes)
	if err := fs.Parse([]string{"-lanes=2"}); err != nil {
		t.Fatalf("parse: %v", err)
	}
	o, err := f.Options()
	if err != nil {
		t.Fatalf("Options: %v", err)
	}
	if f.Lanes != 2 || o.Cover || o.Formal || o.Workers != 0 {
		t.Fatalf("unbound knobs leaked values: %+v", o)
	}
	if o.SimBackend().String() != "compiled" {
		t.Fatalf("unbound backend should default to compiled, got %s", o.SimBackend())
	}
}
