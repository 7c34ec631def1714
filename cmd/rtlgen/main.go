// Command rtlgen generates random synthesizable Verilog designs with the
// internal/rtlgen generator and optionally runs the differential oracles
// on them:
//
//	rtlgen -seed 1 -n 1                  # print one design to stdout
//	rtlgen -seed 1 -n 50 -out designs/   # write gen_*.v files + index.tsv
//	rtlgen -seed 1 -n 300 -check         # diff backends + round-trip each
//
// -check exits non-zero on the first divergence and prints the offending
// design, making the command usable as a standalone fuzz sweep in scripts
// and CI. -cycles bounds the per-design stimulus length.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"uvllm/internal/rtlgen"
	"uvllm/internal/service"
)

func main() {
	var (
		seed   = flag.Int64("seed", 1, "first generation seed")
		n      = flag.Int("n", 1, "number of designs (seeds seed..seed+n-1)")
		out    = flag.String("out", "", "output directory (write gen_*.v files)")
		check  = flag.Bool("check", false, "run the differential oracles on each design")
		cov    = flag.Bool("cover", false, "coverage-directed sweep: compare random vs directed stimulus, keep coverage-raising designs")
		cycles = flag.Int("cycles", 60, "stimulus cycles per design in -check and -cover modes")
	)
	knobs := service.Bind(flag.CommandLine, service.FlagLanes)
	flag.Parse()
	opts, err := knobs.Options()
	if err != nil {
		fatal(err)
	}
	lanes := &opts.Lanes
	if *n < 1 {
		fatal(fmt.Errorf("-n must be >= 1, got %d", *n))
	}
	if *cycles < 1 {
		fatal(fmt.Errorf("-cycles must be >= 1, got %d", *cycles))
	}

	if *cov {
		runs, cum, err := rtlgen.CoverSweep(*seed, *n, *cycles, *lanes)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rtlgen.FormatCoverSweep(runs, cum))
		return
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}

	var index strings.Builder
	index.WriteString("seed\tmodule\tflavor\tlevelized\n")
	levelized, fallback := 0, 0
	for i := 0; i < *n; i++ {
		d := rtlgen.Generate(*seed + int64(i))

		if *check {
			rep, err := rtlgen.DiffBackends(d.Source, d.Top, d.Clock, *cycles, d.Seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rtlgen: seed %d (%s): backends diverged: %v\n%s\n",
					d.Seed, d.Flavor, err, d.Source)
				os.Exit(1)
			}
			if err := rtlgen.RoundTrip(d.Source); err != nil {
				fmt.Fprintf(os.Stderr, "rtlgen: seed %d: %v\n", d.Seed, err)
				os.Exit(1)
			}
			if *lanes > 1 {
				if _, err := rtlgen.DiffLanes(d.Source, d.Top, d.Clock, *lanes, *cycles, d.Seed); err != nil {
					fmt.Fprintf(os.Stderr, "rtlgen: seed %d (%s): lane engines diverged: %v\n%s\n",
						d.Seed, d.Flavor, err, d.Source)
					os.Exit(1)
				}
			}
			if rep.Levelized {
				levelized++
			} else {
				fallback++
			}
			if *out != "" {
				fmt.Fprintf(&index, "%d\t%s\t%s\t%v\n", d.Seed, d.Name, d.Flavor, rep.Levelized)
			}
		} else if *out != "" {
			fmt.Fprintf(&index, "%d\t%s\t%s\t-\n", d.Seed, d.Name, d.Flavor)
		}

		switch {
		case *out != "":
			if err := os.WriteFile(filepath.Join(*out, d.Name+".v"), []byte(d.Source), 0o644); err != nil {
				fatal(err)
			}
		case !*check:
			fmt.Print(d.Source)
		}
	}

	if *out != "" {
		if err := os.WriteFile(filepath.Join(*out, "index.tsv"), []byte(index.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("rtlgen: wrote %d designs under %s\n", *n, *out)
	}
	if *check {
		fmt.Printf("rtlgen: %d designs checked, 0 divergences (%d levelized, %d event-fallback)\n",
			*n, levelized, fallback)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtlgen:", err)
	os.Exit(1)
}
