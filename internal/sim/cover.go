package sim

// Structural coverage instrumentation, shared by both backends. The
// coverage model is *cycle-sampled*: points are recorded against the
// settled simulation state at two well-defined instants of the harness
// cycle protocol — statements and branch arms against the pre-edge state
// (inputs applied and combinational logic settled, the state every
// posedge process observes), toggles and FSM occupancy against the
// post-cycle state. Sampling against fixpoints rather than transient
// executions is what makes coverage maps byte-identical across the
// event-driven and compiled backends: the differential suite already
// proves the fixpoints agree, and the rtlgen gates extend that proof to
// the encoded coverage maps (which additionally cross-checks the
// compiled condition probes against the interpreter's evaluator).
//
// Coverage is one configuration: every model (statements, branches,
// toggles, FSM occupancy), with the harness clock's toggle and FSM points
// left out — the clock is low at both sample instants, so its high phase
// is unobservable by construction. The instrumentation is zero-overhead
// when off: the only cost on a non-covering instance is one nil check per
// harness cycle, and nothing is added to the signal-store or settle hot
// paths. The coverage plan — point universe and compiled condition
// probes — is built lazily, once per (Program, harness clock), and shared
// by every covering instance of that pair. Its points are numbered by
// their slots in the plan's cover.Universe, so every covering instance
// counts over the same universe and sampling is one slice increment.

import (
	"fmt"
	"slices"

	"uvllm/internal/cover"
	"uvllm/internal/verilog"
)

// ---------------------------------------------------------------------------
// Coverage plan: per-(Program, clock) point universe and condition probes.

// coverProbe evaluates one branch condition or case-arm expression at its
// self-determined width against an instance's current state. ok is false
// when the (interpreted) evaluation fails; compiled probes cannot fail.
type coverProbe func(*Instance) (v uint64, ok bool)

type coverNodeKind uint8

const (
	coverPlain coverNodeKind = iota
	coverIf
	coverCase
	coverFor
)

// coverNode is one statement of the coverage plan. Points are
// precomputed as plan slots so sampling never formats or hashes names.
type coverNode struct {
	stmt int32
	kind coverNodeKind

	// coverIf
	cond    coverProbe
	thenPt  int32
	elsePt  int32
	thenSub []*coverNode
	elseSub []*coverNode

	// coverCase
	sel    coverProbe
	arms   []coverArm
	defPt  int32
	defSub []*coverNode

	// coverFor
	body []*coverNode
}

// coverArm is one explicit (non-default) case item.
type coverArm struct {
	vals []coverProbe
	pt   int32
	sub  []*coverNode
}

type coverTogglePlan struct {
	sig   int
	width int
	pts0  []int32
	pts1  []int32
}

type coverFSMPlan struct {
	sig      int
	statePts map[uint64]int32
	transPts map[[2]uint64]int32
}

// coverPlan is the coverage structure of one Program under one harness
// clock: the point universe, the statement and branch nodes with their
// condition probes, and the toggle and FSM samplers, every point numbered
// by its slot in the universe. A plan is immutable once built and shared
// by every covering instance of the program under that clock.
type coverPlan struct {
	u       *cover.Universe
	procs   [][]*coverNode // one node list per always block
	toggles []coverTogglePlan
	fsms    []coverFSMPlan
}

// coverPlan returns the program's coverage plan for a harness clocked by
// clock ("" for none), building it on first use under the program's lock.
func (p *Program) coverPlan(clock string) *coverPlan {
	p.coverMu.Lock()
	defer p.coverMu.Unlock()
	plan := p.coverPlans[clock]
	if plan == nil {
		if p.coverPlans == nil {
			p.coverPlans = map[string]*coverPlan{}
		}
		plan = buildCoverPlan(p, clock)
		p.coverPlans[clock] = plan
	}
	return plan
}

// coverPoints numbers the points of a plan under construction: build
// slot s is the s-th point handed to slot.
type coverPoints []cover.Point

// slot gives p the next build slot.
func (ps *coverPoints) slot(p cover.Point) int32 {
	*ps = append(*ps, p)
	return int32(len(*ps) - 1)
}

// maxFSMStates bounds the inferred-FSM state universe so the transition
// cross product (states²) stays small.
const maxFSMStates = 16

func buildCoverPlan(p *Program, clock string) *coverPlan {
	d := p.d
	// The scratch compiler serves two roles: constant evaluation of case
	// arms for FSM inference (both backends), and — on the compiled
	// backend only — lowering condition probes to closures, which the
	// cross-backend coverage gate then checks against the interpreter.
	comp := &compiler{s: &Instance{d: d, vals: make([]uint64, len(d.sigs))}}
	compiled := p.backend == BackendCompiled

	plan := &coverPlan{}
	var pts coverPoints

	// Statement/branch plan: always-block bodies only. Continuous
	// assignments and port connections are structureless (one expression,
	// no arms) and initial blocks run once at reset; neither discriminates
	// stimulus quality, which is what the model is for.
	for _, pr := range d.procs {
		if pr.body == nil || pr.kind == procInit {
			continue
		}
		b := &coverNodeBuilder{pts: &pts, comp: comp, compiled: compiled, prefix: fmt.Sprintf("p%d", pr.idx)}
		if nodes := b.build(pr, pr.body); len(nodes) > 0 {
			plan.procs = append(plan.procs, nodes)
		}
	}

	// Toggle plan: every scalar (non-memory) signal bit but the clock's,
	// both directions.
	for i, si := range d.sigs {
		if si.isMem || si.width <= 0 || si.name == clock {
			continue
		}
		tg := coverTogglePlan{sig: i, width: si.width}
		for b := 0; b < si.width; b++ {
			bit := fmt.Sprintf("%s[%d]", si.name, b)
			tg.pts0 = append(tg.pts0, pts.slot(cover.Point{Kind: cover.KindToggle0, Name: bit}))
			tg.pts1 = append(tg.pts1, pts.slot(cover.Point{Kind: cover.KindToggle1, Name: bit}))
		}
		plan.toggles = append(plan.toggles, tg)
	}

	// FSM plan: a sequentially written register that some case statement
	// dispatches on with all-constant arms is inferred to be a state
	// register; its declared states are the arm constants.
	plan.fsms = inferFSMs(d, comp, &pts, clock)

	plan.u = cover.NewUniverse(pts)
	plan.renumber(pts)
	return plan
}

// renumber moves every point of the plan from its build slot in pts to
// its slot in plan.u, so sampling counts straight into a map over the
// universe.
func (plan *coverPlan) renumber(pts coverPoints) {
	slot := make([]int32, len(pts))
	for i, p := range pts {
		s, _ := plan.u.Slot(p)
		slot[i] = int32(s)
	}
	var walk func([]*coverNode)
	walk = func(nodes []*coverNode) {
		for _, n := range nodes {
			n.stmt = slot[n.stmt]
			switch n.kind {
			case coverIf:
				n.thenPt, n.elsePt = slot[n.thenPt], slot[n.elsePt]
				walk(n.thenSub)
				walk(n.elseSub)
			case coverCase:
				for i := range n.arms {
					n.arms[i].pt = slot[n.arms[i].pt]
					walk(n.arms[i].sub)
				}
				n.defPt = slot[n.defPt]
				walk(n.defSub)
			case coverFor:
				walk(n.body)
			}
		}
	}
	for _, nodes := range plan.procs {
		walk(nodes)
	}
	for _, tg := range plan.toggles {
		for b := range tg.pts0 {
			tg.pts0[b], tg.pts1[b] = slot[tg.pts0[b]], slot[tg.pts1[b]]
		}
	}
	for _, f := range plan.fsms {
		for v, s := range f.statePts {
			f.statePts[v] = slot[s]
		}
		for t, s := range f.transPts {
			f.transPts[t] = slot[s]
		}
	}
}

// coverNodeBuilder numbers statements within one process.
type coverNodeBuilder struct {
	pts      *coverPoints
	comp     *compiler
	compiled bool
	prefix   string
	n        int
}

func (b *coverNodeBuilder) probe(e verilog.Expr, sc *scope) coverProbe {
	if b.compiled {
		if fn, err := b.comp.compileSelf(e, sc); err == nil {
			return func(s *Instance) (uint64, bool) { return fn(s), true }
		}
	}
	return func(s *Instance) (uint64, bool) {
		v, err := s.evalSelf(e, sc)
		return v, err == nil
	}
}

// build lowers one statement tree into coverage nodes.
func (b *coverNodeBuilder) build(pr *process, st verilog.Stmt) []*coverNode {
	switch v := st.(type) {
	case nil, *verilog.NullStmt:
		return nil
	case *verilog.Block:
		var out []*coverNode
		for _, sub := range v.Stmts {
			out = append(out, b.build(pr, sub)...)
		}
		return out
	case *verilog.If:
		b.n++
		id := fmt.Sprintf("%s.s%d", b.prefix, b.n)
		n := &coverNode{
			stmt:    b.pts.slot(cover.Point{Kind: cover.KindStmt, Name: id}),
			kind:    coverIf,
			cond:    b.probe(v.Cond, pr.sc),
			thenPt:  b.pts.slot(cover.Point{Kind: cover.KindBranch, Name: id + ".then"}),
			elsePt:  b.pts.slot(cover.Point{Kind: cover.KindBranch, Name: id + ".else"}),
			thenSub: b.build(pr, v.Then),
		}
		if v.Else != nil {
			n.elseSub = b.build(pr, v.Else)
		}
		return []*coverNode{n}
	case *verilog.Case:
		b.n++
		id := fmt.Sprintf("%s.s%d", b.prefix, b.n)
		n := &coverNode{
			stmt:  b.pts.slot(cover.Point{Kind: cover.KindStmt, Name: id}),
			kind:  coverCase,
			sel:   b.probe(v.Expr, pr.sc),
			defPt: b.pts.slot(cover.Point{Kind: cover.KindBranch, Name: id + ".default"}),
		}
		armIdx := 0
		for i := range v.Items {
			it := &v.Items[i]
			if it.Exprs == nil {
				n.defSub = b.build(pr, it.Body)
				continue
			}
			arm := coverArm{
				pt:  b.pts.slot(cover.Point{Kind: cover.KindBranch, Name: fmt.Sprintf("%s.a%d", id, armIdx)}),
				sub: b.build(pr, it.Body),
			}
			for _, ex := range it.Exprs {
				arm.vals = append(arm.vals, b.probe(ex, pr.sc))
			}
			n.arms = append(n.arms, arm)
			armIdx++
		}
		return []*coverNode{n}
	case *verilog.For:
		b.n++
		id := fmt.Sprintf("%s.s%d", b.prefix, b.n)
		// The body is marked reachable when the loop statement is; the
		// sampler does not re-execute loop iterations (it must not mutate
		// state), so per-iteration branch decisions inside loops are
		// approximated by the settled post-loop state.
		return []*coverNode{{
			stmt: b.pts.slot(cover.Point{Kind: cover.KindStmt, Name: id}),
			kind: coverFor,
			body: b.build(pr, v.Body),
		}}
	default:
		b.n++
		return []*coverNode{{
			stmt: b.pts.slot(cover.Point{Kind: cover.KindStmt, Name: fmt.Sprintf("%s.s%d", b.prefix, b.n)}),
			kind: coverPlain,
		}}
	}
}

// inferFSMs finds state registers: signals other than the clock written
// by a sequential process and dispatched on by a bare-identifier case
// statement whose arms are all constant. The declared state set is the
// union of arm constants over every such case (capped at maxFSMStates);
// the transition universe is the full states×states cross product.
func inferFSMs(d *Design, comp *compiler, pts *coverPoints, clock string) []coverFSMPlan {
	seqWritten := map[int]bool{}
	for _, pr := range d.procs {
		if pr.kind == procSeq {
			for _, sig := range writeSet(pr) {
				seqWritten[sig] = true
			}
		}
	}
	states := map[int]map[uint64]bool{} // sig -> declared states
	ok := map[int]bool{}
	for _, pr := range d.procs {
		if pr.body == nil {
			continue
		}
		sc := pr.sc
		verilog.WalkStmt(pr.body, func(st verilog.Stmt) bool {
			cs, isCase := st.(*verilog.Case)
			if !isCase {
				return true
			}
			id, isIdent := cs.Expr.(*verilog.Ident)
			if !isIdent {
				return true
			}
			idx, declared := sc.names[id.Name]
			if !declared || !seqWritten[idx] || d.sigs[idx].isMem {
				return true
			}
			vals := map[uint64]bool{}
			for i := range cs.Items {
				for _, ex := range cs.Items[i].Exprs {
					v, isConst := comp.staticEval(ex, sc)
					if !isConst {
						return true // one dynamic arm disqualifies this case
					}
					vals[v] = true
				}
			}
			if len(vals) < 2 {
				return true
			}
			if states[idx] == nil {
				states[idx] = map[uint64]bool{}
			}
			for v := range vals {
				states[idx][v] = true
			}
			ok[idx] = true
			return true
		})
	}
	var plans []coverFSMPlan
	// Deterministic order: signal index order.
	for idx := 0; idx < len(d.sigs); idx++ {
		name := d.sigs[idx].name
		if !ok[idx] || len(states[idx]) > maxFSMStates || name == clock {
			continue
		}
		f := coverFSMPlan{
			sig:      idx,
			statePts: map[uint64]int32{},
			transPts: map[[2]uint64]int32{},
		}
		vals := make([]uint64, 0, len(states[idx]))
		for v := range states[idx] {
			vals = append(vals, v)
		}
		slices.Sort(vals)
		for _, v := range vals {
			f.statePts[v] = pts.slot(cover.Point{Kind: cover.KindState, Name: fmt.Sprintf("%s=%d", name, v)})
		}
		for _, a := range vals {
			for _, b := range vals {
				f.transPts[[2]uint64{a, b}] = pts.slot(cover.Point{Kind: cover.KindTrans, Name: fmt.Sprintf("%s:%d->%d", name, a, b)})
			}
		}
		plans = append(plans, f)
	}
	return plans
}

// ---------------------------------------------------------------------------
// Per-instance coverage state and sampling.

// instCover is the mutable coverage state of one covering instance.
type instCover struct {
	plan    *coverPlan
	m       *cover.Map
	fsmPrev []uint64
	fsmSeen []bool
}

// enableCover switches structural coverage collection on under the
// plan for clock, replacing any coverage collected so far. The plan's
// whole universe is in the map from the start, so Coverage().Percent()
// has its denominator before the first sample, and every instance of one
// Program covered under one clock counts over the same universe, so Merge
// and Gain between their maps are slot loops.
// The accumulated coverage map is not part of Snapshot/Restore — it is
// observational, and rewinding an instance does not un-observe its
// history — but the FSM sampler's transition history is captured and
// restored so a rewound instance never records a phantom transition out
// of the pre-restore state (see Snapshot).
func (s *Instance) enableCover(clock string) error {
	if s.program == nil {
		return fmt.Errorf("sim: cover: instance has no program")
	}
	plan := s.program.coverPlan(clock)
	s.cov = &instCover{
		plan:    plan,
		m:       plan.u.NewMap(),
		fsmPrev: make([]uint64, len(plan.fsms)),
		fsmSeen: make([]bool, len(plan.fsms)),
	}
	return nil
}

// Coverage returns the accumulated structural coverage map, or nil when
// coverage is not enabled. The returned map is live: it keeps
// accumulating as the instance simulates. Clone it to get a stable copy.
func (s *Instance) Coverage() *cover.Map {
	if s.cov == nil {
		return nil
	}
	return s.cov.m
}

// hit records one sample of the point at universe slot s.
func (ic *instCover) hit(s int32) { ic.m.IncSlot(int(s)) }

// coverSampleExec records statement and branch coverage against the
// current (settled) state. The harness calls it at the pre-edge instant.
func (s *Instance) coverSampleExec() {
	ic := s.cov
	if ic == nil {
		return
	}
	for _, nodes := range ic.plan.procs {
		ic.walk(s, nodes)
	}
}

func (ic *instCover) walk(s *Instance, nodes []*coverNode) {
	for _, n := range nodes {
		ic.hit(n.stmt)
		switch n.kind {
		case coverIf:
			v, ok := n.cond(s)
			if !ok {
				continue
			}
			if v != 0 {
				ic.hit(n.thenPt)
				ic.walk(s, n.thenSub)
			} else {
				ic.hit(n.elsePt)
				ic.walk(s, n.elseSub)
			}
		case coverCase:
			sel, ok := n.sel(s)
			if !ok {
				continue
			}
			matched := false
			for i := range n.arms {
				for _, vp := range n.arms[i].vals {
					v, vok := vp(s)
					if vok && v == sel {
						matched = true
						break
					}
				}
				if matched {
					ic.hit(n.arms[i].pt)
					ic.walk(s, n.arms[i].sub)
					break
				}
			}
			if !matched {
				ic.hit(n.defPt)
				ic.walk(s, n.defSub)
			}
		case coverFor:
			ic.walk(s, n.body)
		}
	}
}

// coverSampleState records toggle and FSM coverage against the current
// (settled) state. The harness calls it at the post-cycle instant.
func (s *Instance) coverSampleState() {
	ic := s.cov
	if ic == nil {
		return
	}
	for _, tg := range ic.plan.toggles {
		v := s.vals[tg.sig]
		for b := 0; b < tg.width; b++ {
			if v&(1<<uint(b)) != 0 {
				ic.hit(tg.pts1[b])
			} else {
				ic.hit(tg.pts0[b])
			}
		}
	}
	for i := range ic.plan.fsms {
		f := &ic.plan.fsms[i]
		cur := s.vals[f.sig]
		if ps, ok := f.statePts[cur]; ok {
			ic.hit(ps)
		}
		if ic.fsmSeen[i] {
			if ps, ok := f.transPts[[2]uint64{ic.fsmPrev[i], cur}]; ok {
				ic.hit(ps)
			}
		}
		ic.fsmPrev[i] = cur
		ic.fsmSeen[i] = true
	}
}
