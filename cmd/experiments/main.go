// Command experiments regenerates every table and figure of the UVLLM
// paper's evaluation section from the 331-instance benchmark:
//
//	experiments -all        # everything (default)
//	experiments -fig5       # syntax HR vs FR comparison
//	experiments -fig6       # functional HR vs FR comparison
//	experiments -fig7       # 27x9 fix-rate heat map
//	experiments -table2     # segmented stage contributions + MEIC speedup
//	experiments -table3     # pair-vs-complete ablation
//	experiments -ablation   # extension ablations (rollback, localization)
//	experiments -passk      # pass@k multi-seed study
//	experiments -cover      # random-vs-directed structural coverage study
//	experiments -formal     # bounded-equivalence study (formal engine)
//
// The lane engines' per-lane costs are benchmarks, not a study here:
// BenchmarkBatchLanes and BenchmarkBitSimLanes, guarded by benchguard.
//
// All numbers are deterministic (seeded) and independent of -workers; see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison. With -v
// the run also prints the amortization counters of the shared compile
// cache and golden-trace memo.
package main

import (
	"flag"
	"fmt"
	"os"

	"uvllm/internal/exp"
	"uvllm/internal/obs"
	"uvllm/internal/service"
)

func main() {
	var (
		verbose  = flag.Bool("v", false, "print compile-cache and golden-trace-memo statistics")
		fig5     = flag.Bool("fig5", false, "print Fig. 5")
		fig6     = flag.Bool("fig6", false, "print Fig. 6")
		fig7     = flag.Bool("fig7", false, "print Fig. 7")
		table2   = flag.Bool("table2", false, "print Table II")
		table3   = flag.Bool("table3", false, "print Table III")
		ablation = flag.Bool("ablation", false, "print extension ablations")
		passk    = flag.Bool("passk", false, "print the pass@k multi-seed study")
		cov      = flag.Bool("cover", false, "print the random-vs-directed structural coverage study")
		form     = flag.Bool("formal", false, "print the bounded-equivalence study (formal engine over the 27 modules)")
		all      = flag.Bool("all", false, "print everything")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON of the study sections to this file (load at chrome://tracing)")
	)
	knobs := service.Bind(flag.CommandLine, service.FlagBackend|service.FlagWorkers)
	flag.Parse()
	opts, err := knobs.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	sess := exp.SharedSession(opts.SimBackend())
	sess.Workers = knobs.Workers
	if !*fig5 && !*fig6 && !*fig7 && !*table2 && !*table3 && !*ablation && !*passk && !*cov && !*form {
		*all = true
	}

	// When -trace is set, every study section runs under a child span of
	// one root span, so the resulting Chrome trace shows where the
	// regeneration time goes. With tracing off, root is nil and every
	// section() call degrades to the nil-span no-op path.
	var tracer *obs.Tracer
	var root *obs.Span
	if *traceOut != "" {
		tracer = obs.NewTracer("experiments")
		root = tracer.Start("experiments")
	}

	if *all {
		section(root, "full_report", func() { fmt.Print(sess.FullReport()) })
		section(root, "ablations", func() { printAblations(sess) })
		section(root, "coverage", func() { printCoverage(sess) })
		section(root, "formal", func() { printFormal(sess, *verbose) })
		printStats(sess, *verbose)
		finishTrace(*traceOut, tracer, root)
		return
	}
	recs := sess.Records()
	if *fig5 {
		section(root, "fig5", func() { fmt.Print(exp.FormatFig5(exp.Fig5(recs))) })
	}
	if *fig6 {
		section(root, "fig6", func() { fmt.Print(exp.FormatFig6(exp.Fig6(recs))) })
	}
	if *fig7 {
		section(root, "fig7", func() { fmt.Print(exp.FormatFig7(exp.Fig7(recs))) })
	}
	if *table2 {
		section(root, "table2", func() {
			fmt.Print(exp.FormatTable2(exp.Table2(recs)))
			fmt.Println()
			fmt.Print(exp.FormatHeadline(sess.ComputeHeadline()))
		})
	}
	if *table3 {
		section(root, "table3", func() { fmt.Print(exp.FormatTable3(sess.Table3())) })
	}
	if *ablation {
		section(root, "ablations", func() { printAblations(sess) })
	}
	if *passk {
		section(root, "passk", func() { fmt.Print(exp.FormatPassAtK(sess.PassAtKStudy(100, 5))) })
	}
	if *cov {
		section(root, "coverage", func() { printCoverage(sess) })
	}
	if *form {
		section(root, "formal", func() { printFormal(sess, *verbose) })
	}
	printStats(sess, *verbose)
	finishTrace(*traceOut, tracer, root)
}

// section runs f inside a child span of root; a nil root (tracing off)
// makes the span a no-op.
func section(root *obs.Span, name string, f func()) {
	sp := root.Child(name)
	defer sp.End()
	f()
}

// finishTrace closes the root span and writes the tracer's spans as
// Chrome trace_event JSON. No-op when tracing is off.
func finishTrace(path string, tracer *obs.Tracer, root *obs.Span) {
	if tracer == nil {
		return
	}
	root.End()
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: write trace:", err)
		os.Exit(1)
	}
	if err := tracer.WriteChromeTrace(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: write trace:", err)
		os.Exit(1)
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tracer.Spans()), path)
}

func printFormal(sess *exp.Session, verbose bool) {
	fmt.Println()
	st, err := sess.EquivStudy(0, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: bounded-equivalence study:", err)
		os.Exit(1)
	}
	fmt.Print(exp.FormatEquiv(st))
	if verbose {
		fmt.Print(exp.FormatEquivStats(st))
	}
}

func printCoverage(sess *exp.Session) {
	fmt.Println()
	rows, err := sess.CoverageStudy(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: coverage study:", err)
		os.Exit(1)
	}
	fmt.Print(exp.FormatCoverage(rows, 0))
}

func printAblations(sess *exp.Session) {
	fmt.Println("\nExtension ablations (first 120 instances)")
	withRB, withoutRB, wq, woq := sess.AblationRollback(120)
	fmt.Printf("  rollback:      FR %.2f%% with vs %.2f%% without; delivered-code pass rate on failures %.1f%% with vs %.1f%% without\n",
		withRB, withoutRB, wq, woq)
	escFR, slFR, escT, slT := sess.AblationLocalization(120)
	fmt.Printf("  localization:  MS->SL escalation FR %.2f%% / %.2fs, immediate SL FR %.2f%% / %.2fs\n",
		escFR, escT, slFR, slT)
}

func printStats(sess *exp.Session, verbose bool) {
	if !verbose {
		return
	}
	fmt.Println()
	fmt.Print(sess.StatsReport())
}
