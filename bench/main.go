// Command bench is the repository benchmark: four workloads driven
// through the layers' public entry points, end-to-end metrics with
// correctness checks, and a traced per-layer ledger. See README.md.
//
//	bash bench/run.sh --workload eval331 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -workload all -seed 1 -out results.json
//	bash bench/run.sh -workload all -seed 1 -trace 1 -trace-dir traces
//	bash bench/run.sh -workload all -seed 1 -repeat 10 -out runs.json
//	bash bench/run.sh -compare parent.json change.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// processStart is when this process began running Go code. A child's
// set-up time runs from here, so it leaves out fork, exec and the
// runtime's own start, which depend on the host more than on the program.
var processStart = time.Now()

// runsFile is the -out format: every run made, in order.
type runsFile struct {
	Runs []*runReport `json:"runs"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, eval331, uvllmd_open, formal_mix or lane_screen")
	seed := fs.Int64("seed", 1, "workload seed; 1 is the working seed, 7 is held out for checking claims")
	seconds := fs.Float64("seconds", 20, "measurement budget of one run, in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics instead of the end-to-end ones")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write <dir>/<workload>.trace.json (Chrome trace format)")
	out := fs.String("out", "", "write every run's full report to this JSON file")
	repeat := fs.Int("repeat", 0, "run each workload N times on seeds seed..seed+N-1 and print each metric's spread")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare parent.json change.json")
	child := fs.String("child", "", "internal: run one workload in this process (setup or measure)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files: parent.json change.json")
			return 2
		}
		if err := runCompare(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *repeat < 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be > 0 and -repeat >= 0")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if *child != "" {
		w := workloadByName(*workload)
		if w == nil || (*child != "setup" && *child != "measure") {
			fmt.Fprintf(os.Stderr, "bench: bad child invocation %q/%q\n", *child, *workload)
			return 2
		}
		rc := newRunCtx(w.Name, *seed, budget, *trace == 1, *traceDir, *child == "setup", processStart)
		if err := runChild(w, rc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	var selected []*workloadDef
	if *workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := workloadByName(*workload); w != nil {
		selected = append(selected, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	reps := max(*repeat, 1)
	ctx := context.Background()
	var file runsFile
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		for i := 0; i < reps; i++ {
			rep, err := runWorkload(ctx, w, *seed+int64(i), budget, *trace == 1, *traceDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printReport(rep)
			file.Runs = append(file.Runs, rep)
			prefix := ""
			if len(selected) > 1 || reps > 1 {
				prefix = fmt.Sprintf("%s.%d.", w.Name, rep.Seed)
			}
			rep.addTo(&line, prefix)
		}
	}
	if *repeat > 0 {
		printSpreads(os.Stdout, file.Runs)
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
