package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"uvllm/internal/obs"
)

// span is one finished interval of a traced pass. IDs are unique within
// a Group: spans from one obs.Tracer share a group, and uvllmd, which
// traces each job with its own tracer, contributes one group per job.
type span struct {
	Group  string
	ID     int64
	Parent int64
	Name   string
	Start  time.Time
	Dur    time.Duration
}

func fromObs(group string, infos []obs.SpanInfo) []span {
	out := make([]span, len(infos))
	for i, s := range infos {
		out[i] = span{Group: group, ID: s.ID, Parent: s.Parent, Name: s.Name, Start: s.Start, Dur: s.Dur}
	}
	return out
}

func (s span) end() time.Time { return s.Start.Add(s.Dur) }

type spanKey struct {
	group string
	id    int64
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of it its children cover. Children are clipped to the
// parent and their overlaps counted once, so concurrently running
// children (or clock skew at the edges) never drive self time negative.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[spanKey][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := spanKey{s.Group, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := coveredTime(s.Start, s.end(), children[spanKey{s.Group, s.ID}])
		out[s.Name] += s.Dur - covered
	}
	return out
}

// coveredTime is the length of the union of the children's intervals
// within [lo, hi).
func coveredTime(lo, hi time.Time, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.end()
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	return total + curB.Sub(curA)
}

// ledgerRow is one span name's line in the per-layer ledger.
type ledgerRow struct {
	Span   string  `json:"span"`
	Metric string  `json:"metric"`
	SelfS  float64 `json:"self_s"`
	Pct    float64 `json:"pct"`
}

// ledger is the self-time breakdown of one traced pass.
type ledger struct {
	RootS          float64     `json:"root_s"`
	UnattributedPc float64     `json:"unattributed_pct"`
	Rows           []ledgerRow `json:"rows"`
	// Unknown lists span names no layer metric claims; the check fails
	// on any, so a renamed span inside the program cannot vanish from
	// the ledger unnoticed.
	Unknown []string `json:"unknown,omitempty"`
}

// buildLedger aggregates self time by span name and expresses each
// name's time as a share of the total root-span time.
func buildLedger(spans []span) ledger {
	var root time.Duration
	for _, s := range spans {
		if rootSpans[s.Name] && s.Parent == 0 {
			root += s.Dur
		}
	}
	var l ledger
	l.RootS = root.Seconds()
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pct := 0.0
		if root > 0 {
			pct = 100 * float64(self[n]) / float64(root)
		}
		metric := spanMetric[n]
		switch {
		case rootSpans[n]:
			metric = "bench.unattributed_pct"
			l.UnattributedPc += pct
		case metric == "":
			l.Unknown = append(l.Unknown, n)
		}
		l.Rows = append(l.Rows, ledgerRow{Span: n, Metric: metric, SelfS: self[n].Seconds(), Pct: pct})
	}
	return l
}

// shares folds the ledger rows into the per-layer share metrics.
func (l ledger) shares() map[string]float64 {
	out := map[string]float64{}
	for _, r := range l.Rows {
		if r.Metric != "" {
			out[r.Metric] += r.Pct
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace_event JSON, one track
// per group. obs.Tracer.WriteChromeTrace covers a single tracer; uvllmd
// spans come from one tracer per job, so the benchmark renders them
// itself in the same format.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	tids := map[string]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.Group]
		if !ok {
			tid = len(tids) + 1
			tids[s.Group] = tid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			Args: map[string]string{"group": s.Group, "span": fmt.Sprint(s.ID), "parent": fmt.Sprint(s.Parent)},
		})
	}
	return json.NewEncoder(w).Encode(events)
}
