// Command expcheck diffs the headline table produced by cmd/experiments
// against the recorded numbers in EXPERIMENTS.md, the CI gate that keeps
// the documented paper-vs-measured table honest:
//
//	go run ./cmd/experiments -table2 -formal | tee /tmp/exp.txt
//	go run ./cmd/expcheck -report /tmp/exp.txt -md EXPERIMENTS.md
//
// The evaluation is fully deterministic (seeded oracle), so every metric
// present in both sources must match to the printed precision. When the
// report carries the equivalence study (-formal), its summary line must
// also appear in EXPERIMENTS.md, compared after collapsing whitespace
// and dropping markdown bold markers. Exit 1 on any mismatch or when the
// sources share no metrics (format drift).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	var (
		report = flag.String("report", "", "cmd/experiments output file (default stdin)")
		md     = flag.String("md", "EXPERIMENTS.md", "markdown file with the recorded headline table")
	)
	flag.Parse()

	var repLines []string
	var err error
	if *report == "" {
		repLines, err = readLines(os.Stdin)
	} else {
		repLines, err = readFileLines(*report)
	}
	if err != nil {
		fatal(err)
	}
	mdLines, err := readFileLines(*md)
	if err != nil {
		fatal(err)
	}

	got := parseReport(repLines)
	want := parseMarkdown(mdLines)
	if len(got) == 0 {
		fatal(fmt.Errorf("no headline metrics found in the experiments output"))
	}
	if len(want) == 0 {
		fatal(fmt.Errorf("no headline table found in %s", *md))
	}

	compared, failed := 0, 0
	for name, wantV := range want {
		gotV, ok := got[name]
		if !ok {
			continue // the markdown may record metrics the block omits and vice versa
		}
		compared++
		if math.Abs(gotV-wantV) > 0.005 {
			fmt.Fprintf(os.Stderr, "expcheck: MISMATCH %-24s recorded %8.2f  measured %8.2f\n", name, wantV, gotV)
			failed++
		} else {
			fmt.Printf("expcheck: ok %-24s %8.2f\n", name, gotV)
		}
	}
	if compared == 0 {
		fatal(fmt.Errorf("headline formats share no metrics (parser drift?)"))
	}
	if summary := studySummary(repLines); summary != "" {
		if strings.Contains(flatten(mdLines), summary) {
			fmt.Printf("expcheck: ok equivalence study summary\n")
		} else {
			fmt.Fprintf(os.Stderr, "expcheck: MISMATCH equivalence study summary not recorded in %s:\n  %s\n", *md, summary)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "expcheck: %d check(s) diverged from %s — rerun cmd/experiments and update the tables\n",
			failed, *md)
		os.Exit(1)
	}
	fmt.Printf("expcheck: all %d shared headline metrics match\n", compared)
}

// studyLineRe matches the equivalence study's summary line
// (exp.FormatEquiv):
//
//	"27/27 modules supported; golden self-equivalent 27/27 (27 unbounded); ..."
var studyLineRe = regexp.MustCompile(`^\d+/\d+ modules supported; `)

// studySummary returns the report's equivalence study summary line with
// its whitespace collapsed, or "" when the report has none.
func studySummary(lines []string) string {
	for _, ln := range lines {
		if studyLineRe.MatchString(ln) {
			return strings.Join(strings.Fields(ln), " ")
		}
	}
	return ""
}

// flatten joins the markdown into one line with its whitespace collapsed
// and bold markers dropped, so a summary wrapped or emphasised in the
// prose still matches.
func flatten(lines []string) string {
	return strings.Join(strings.Fields(strings.ReplaceAll(strings.Join(lines, " "), "**", "")), " ")
}

// reportLineRe matches FormatHeadline rows:
//
//	"  Syntax FR                    paper    86.99%   measured    87.79%"
var reportLineRe = regexp.MustCompile(`^\s{2}(\S.*?)\s+paper\s+\S+\s+measured\s+([0-9.+-]+)`)

func parseReport(lines []string) map[string]float64 {
	out := map[string]float64{}
	for _, ln := range lines {
		m := reportLineRe.FindStringSubmatch(strings.TrimRight(ln, "%x \t"))
		if m == nil {
			continue
		}
		if v, err := strconv.ParseFloat(strings.Trim(m[2], "%x"), 64); err == nil {
			out[normalize(m[1])] = v
		}
	}
	return out
}

// parseMarkdown matches the EXPERIMENTS.md headline rows:
//
//	"| Syntax FR | 86.99% | 87.79% |"
func parseMarkdown(lines []string) map[string]float64 {
	out := map[string]float64{}
	for _, ln := range lines {
		cells := strings.Split(strings.Trim(strings.TrimSpace(ln), "|"), "|")
		if len(cells) != 3 {
			continue
		}
		name := normalize(cells[0])
		meas := strings.TrimSpace(cells[2])
		meas = strings.Trim(meas, "%×x~")
		if v, err := strconv.ParseFloat(meas, 64); err == nil && name != "metric" {
			out[name] = v
		}
	}
	return out
}

// normalize canonicalizes a metric name across the two formats (Unicode
// minus vs ASCII hyphen, case, inner whitespace).
func normalize(name string) string {
	name = strings.ReplaceAll(name, "−", "-")
	name = strings.ToLower(strings.TrimSpace(name))
	return strings.Join(strings.Fields(name), " ")
}

func readFileLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readLines(f)
}

func readLines(f *os.File) ([]string, error) {
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "expcheck:", err)
	os.Exit(1)
}
