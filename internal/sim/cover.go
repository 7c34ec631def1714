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
// The instrumentation is zero-overhead when off: the only cost on a
// non-covering instance is one nil check per harness cycle, and nothing
// is added to the signal-store or settle hot paths. The coverage plan —
// point enumeration and compiled condition probes — is built lazily,
// once per Program, and shared by every covering instance. The plan
// gives every point a slot; each option set gets one cover.Universe of
// the points it collects, built once under the plan's lock, so every
// covering instance of a program counts over the same universe and
// sampling is one slice increment.

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"uvllm/internal/cover"
	"uvllm/internal/verilog"
)

// CoverOptions selects the structural coverage models an Instance
// collects. The zero value disables coverage entirely.
type CoverOptions struct {
	// Statements counts executable statements of always-block bodies
	// reached by the settled pre-edge state.
	Statements bool
	// Branches counts if/case arms (including implicit empty elses and
	// case defaults) selected by the settled pre-edge state.
	Branches bool
	// Toggles records every non-memory signal bit observed at 0 and at 1
	// in the post-cycle state.
	Toggles bool
	// FSM records state and transition occupancy of inferred FSM
	// registers (sequentially written signals dispatched on by a case
	// statement with constant arms).
	FSM bool

	// ExcludeSignals names signals left out of the toggle and FSM
	// universes. The harness adds its clock automatically: the clock is
	// low at both sample instants, so its high phase is unobservable by
	// construction.
	ExcludeSignals []string
}

// CoverAll enables every coverage model.
func CoverAll() CoverOptions {
	return CoverOptions{Statements: true, Branches: true, Toggles: true, FSM: true}
}

// Any reports whether at least one coverage model is enabled.
func (o CoverOptions) Any() bool {
	return o.Statements || o.Branches || o.Toggles || o.FSM
}

// ---------------------------------------------------------------------------
// Coverage plan: per-Program point enumeration and condition probes.

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

type coverProcPlan struct {
	nodes []*coverNode
}

type coverTogglePlan struct {
	sig   int
	name  string
	width int
	pts0  []int32
	pts1  []int32
}

type coverFSMPlan struct {
	sig      int
	name     string
	statePts map[uint64]int32
	transPts map[[2]uint64]int32
}

// coverPlan is the per-Program coverage structure. Everything but the
// view cache is immutable once built.
type coverPlan struct {
	points  []cover.Point // by plan slot
	procs   []coverProcPlan
	toggles []coverTogglePlan
	fsms    []coverFSMPlan

	mu    sync.Mutex
	views map[string]*coverView // by coverKey
}

// slot gives p the next plan slot.
func (plan *coverPlan) slot(p cover.Point) int32 {
	plan.points = append(plan.points, p)
	return int32(len(plan.points) - 1)
}

// coverPlan returns the program's coverage plan, building it on first
// use. The plan is immutable and shared by all instances.
func (p *Program) coverPlan() *coverPlan {
	p.coverOnce.Do(func() {
		p.coverP = buildCoverPlan(p)
	})
	return p.coverP
}

// maxFSMStates bounds the inferred-FSM state universe so the transition
// cross product (states²) stays small.
const maxFSMStates = 16

func buildCoverPlan(p *Program) *coverPlan {
	d := p.d
	// The scratch compiler serves two roles: constant evaluation of case
	// arms for FSM inference (both backends), and — on the compiled
	// backend only — lowering condition probes to closures, which the
	// cross-backend coverage gate then checks against the interpreter.
	comp := &compiler{s: &Instance{d: d, vals: make([]uint64, len(d.sigs))}}
	compiled := p.backend == BackendCompiled

	plan := &coverPlan{}

	// Statement/branch plan: always-block bodies only. Continuous
	// assignments and port connections are structureless (one expression,
	// no arms) and initial blocks run once at reset; neither discriminates
	// stimulus quality, which is what the model is for.
	for _, pr := range d.procs {
		if pr.body == nil || pr.kind == procInit {
			continue
		}
		b := &coverNodeBuilder{plan: plan, comp: comp, compiled: compiled, prefix: fmt.Sprintf("p%d", pr.idx)}
		nodes := b.build(pr, pr.body)
		if len(nodes) > 0 {
			plan.procs = append(plan.procs, coverProcPlan{nodes: nodes})
		}
	}

	// Toggle plan: every scalar (non-memory) signal bit, both directions.
	for i, si := range d.sigs {
		if si.isMem || si.width <= 0 {
			continue
		}
		tg := coverTogglePlan{sig: i, name: si.name, width: si.width}
		for b := 0; b < si.width; b++ {
			bit := fmt.Sprintf("%s[%d]", si.name, b)
			tg.pts0 = append(tg.pts0, plan.slot(cover.Point{Kind: cover.KindToggle0, Name: bit}))
			tg.pts1 = append(tg.pts1, plan.slot(cover.Point{Kind: cover.KindToggle1, Name: bit}))
		}
		plan.toggles = append(plan.toggles, tg)
	}

	// FSM plan: a sequentially written register that some case statement
	// dispatches on with all-constant arms is inferred to be a state
	// register; its declared states are the arm constants.
	plan.fsms = inferFSMs(d, comp, plan)
	return plan
}

// coverNodeBuilder numbers statements within one process.
type coverNodeBuilder struct {
	plan     *coverPlan
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
			stmt:    b.plan.slot(cover.Point{Kind: cover.KindStmt, Name: id}),
			kind:    coverIf,
			cond:    b.probe(v.Cond, pr.sc),
			thenPt:  b.plan.slot(cover.Point{Kind: cover.KindBranch, Name: id + ".then"}),
			elsePt:  b.plan.slot(cover.Point{Kind: cover.KindBranch, Name: id + ".else"}),
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
			stmt:  b.plan.slot(cover.Point{Kind: cover.KindStmt, Name: id}),
			kind:  coverCase,
			sel:   b.probe(v.Expr, pr.sc),
			defPt: b.plan.slot(cover.Point{Kind: cover.KindBranch, Name: id + ".default"}),
		}
		armIdx := 0
		for i := range v.Items {
			it := &v.Items[i]
			if it.Exprs == nil {
				n.defSub = b.build(pr, it.Body)
				continue
			}
			arm := coverArm{
				pt:  b.plan.slot(cover.Point{Kind: cover.KindBranch, Name: fmt.Sprintf("%s.a%d", id, armIdx)}),
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
			stmt: b.plan.slot(cover.Point{Kind: cover.KindStmt, Name: id}),
			kind: coverFor,
			body: b.build(pr, v.Body),
		}}
	default:
		b.n++
		return []*coverNode{{
			stmt: b.plan.slot(cover.Point{Kind: cover.KindStmt, Name: fmt.Sprintf("%s.s%d", b.prefix, b.n)}),
			kind: coverPlain,
		}}
	}
}

// inferFSMs finds state registers: signals written by a sequential
// process and dispatched on by a bare-identifier case statement whose
// arms are all constant. The declared state set is the union of arm
// constants over every such case (capped at maxFSMStates); the
// transition universe is the full states×states cross product.
func inferFSMs(d *Design, comp *compiler, plan *coverPlan) []coverFSMPlan {
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
		if !ok[idx] || len(states[idx]) > maxFSMStates {
			continue
		}
		name := d.sigs[idx].name
		f := coverFSMPlan{
			sig:      idx,
			name:     name,
			statePts: map[uint64]int32{},
			transPts: map[[2]uint64]int32{},
		}
		vals := make([]uint64, 0, len(states[idx]))
		for v := range states[idx] {
			vals = append(vals, v)
		}
		slices.Sort(vals)
		for _, v := range vals {
			f.statePts[v] = plan.slot(cover.Point{Kind: cover.KindState, Name: fmt.Sprintf("%s=%d", name, v)})
		}
		for _, a := range vals {
			for _, b := range vals {
				f.transPts[[2]uint64{a, b}] = plan.slot(cover.Point{Kind: cover.KindTrans, Name: fmt.Sprintf("%s:%d->%d", name, a, b)})
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
	opts    CoverOptions
	plan    *coverPlan
	view    *coverView
	m       *cover.Map
	fsmPrev []uint64
	fsmSeen []bool
}

// EnableCover switches structural coverage collection on (or off, with a
// zero CoverOptions), replacing any coverage collected so far. The full
// point universe of the enabled models is registered immediately, so
// Coverage().Percent() has its denominator before the first sample.
// Every instance of one Program enabled with an equal option set counts
// over one shared universe, so Merge and Gain between their maps are
// slot loops.
// The accumulated coverage map is not part of Snapshot/Restore — it is
// observational, and rewinding an instance does not un-observe its
// history — but the FSM sampler's transition history is captured and
// restored so a rewound instance never records a phantom transition out
// of the pre-restore state (see Snapshot).
func (s *Instance) EnableCover(opts CoverOptions) error {
	if !opts.Any() {
		s.cov = nil
		return nil
	}
	if s.program == nil {
		return fmt.Errorf("sim: cover: instance has no program")
	}
	plan := s.program.coverPlan()
	v := plan.view(opts)
	ic := &instCover{opts: opts, plan: plan, view: v, m: v.u.NewMap()}
	if opts.FSM {
		ic.fsmPrev = make([]uint64, len(v.fsms))
		ic.fsmSeen = make([]bool, len(v.fsms))
	}
	s.cov = ic
	return nil
}

// CoverEnabled reports whether the instance is collecting coverage.
func (s *Instance) CoverEnabled() bool { return s.cov != nil }

// Coverage returns the accumulated structural coverage map, or nil when
// coverage is not enabled. The returned map is live: it keeps
// accumulating as the instance simulates. Clone it to get a stable copy.
func (s *Instance) Coverage() *cover.Map {
	if s.cov == nil {
		return nil
	}
	return s.cov.m
}

// hit records one sample of the point at plan slot ps, if the instance's
// option set collects it.
func (ic *instCover) hit(ps int32) {
	if s := ic.view.slots[ps]; s >= 0 {
		ic.m.IncSlot(int(s))
	}
}

// coverSampleExec records statement and branch coverage against the
// current (settled) state. The harness calls it at the pre-edge instant.
func (s *Instance) coverSampleExec() {
	ic := s.cov
	if ic == nil || (!ic.opts.Statements && !ic.opts.Branches) {
		return
	}
	for _, pp := range ic.plan.procs {
		ic.walk(s, pp.nodes)
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
	for _, tg := range ic.view.toggles {
		v := s.vals[tg.sig]
		for b := 0; b < tg.width; b++ {
			if v&(1<<uint(b)) != 0 {
				ic.hit(tg.pts1[b])
			} else {
				ic.hit(tg.pts0[b])
			}
		}
	}
	for i := range ic.view.fsms {
		f := &ic.view.fsms[i]
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

// ---------------------------------------------------------------------------
// Per-option-set views: the universe an option set collects.

// coverView is the coverage plan restricted to one option set: the
// universe of the points it collects, where each plan slot counts in
// that universe, and the toggle and FSM plans left after exclusions.
// Views are immutable and shared by every instance enabled with an
// equal option set.
type coverView struct {
	u       *cover.Universe
	slots   []int32 // plan slot -> universe slot; -1 when not collected
	toggles []coverTogglePlan
	fsms    []coverFSMPlan
}

// coverKey identifies an option set: the enabled models and the set of
// excluded signals.
func coverKey(o CoverOptions) string {
	ex := slices.Clone(o.ExcludeSignals)
	sort.Strings(ex)
	return fmt.Sprintf("%t %t %t %t %q", o.Statements, o.Branches, o.Toggles, o.FSM, slices.Compact(ex))
}

// view returns the plan's view for opts, building it on first use.
func (plan *coverPlan) view(opts CoverOptions) *coverView {
	key := coverKey(opts)
	plan.mu.Lock()
	defer plan.mu.Unlock()
	if v := plan.views[key]; v != nil {
		return v
	}
	if plan.views == nil {
		plan.views = map[string]*coverView{}
	}
	v := plan.buildView(opts)
	plan.views[key] = v
	return v
}

func (plan *coverPlan) buildView(opts CoverOptions) *coverView {
	excluded := map[string]bool{}
	for _, n := range opts.ExcludeSignals {
		excluded[n] = true
	}
	v := &coverView{}
	var on []int32 // plan slots collected under opts
	if opts.Statements || opts.Branches {
		for _, pp := range plan.procs {
			on = collectNodes(on, opts, pp.nodes)
		}
	}
	if opts.Toggles {
		for _, tg := range plan.toggles {
			if excluded[tg.name] {
				continue
			}
			v.toggles = append(v.toggles, tg)
			on = append(append(on, tg.pts0...), tg.pts1...)
		}
	}
	if opts.FSM {
		for _, f := range plan.fsms {
			if excluded[f.name] {
				continue
			}
			v.fsms = append(v.fsms, f)
			for _, ps := range f.statePts {
				on = append(on, ps)
			}
			for _, ps := range f.transPts {
				on = append(on, ps)
			}
		}
	}
	pts := make([]cover.Point, len(on))
	for i, ps := range on {
		pts[i] = plan.points[ps]
	}
	v.u = cover.NewUniverse(pts)
	v.slots = make([]int32, len(plan.points))
	for i := range v.slots {
		v.slots[i] = -1
	}
	for _, ps := range on {
		s, _ := v.u.Slot(plan.points[ps])
		v.slots[ps] = int32(s)
	}
	return v
}

// collectNodes appends the plan slots of the statement and branch points
// opts collects in nodes.
func collectNodes(on []int32, opts CoverOptions, nodes []*coverNode) []int32 {
	for _, n := range nodes {
		if opts.Statements {
			on = append(on, n.stmt)
		}
		switch n.kind {
		case coverIf:
			if opts.Branches {
				on = append(on, n.thenPt, n.elsePt)
			}
			on = collectNodes(on, opts, n.thenSub)
			on = collectNodes(on, opts, n.elseSub)
		case coverCase:
			if opts.Branches {
				for i := range n.arms {
					on = append(on, n.arms[i].pt)
				}
				on = append(on, n.defPt)
			}
			for i := range n.arms {
				on = collectNodes(on, opts, n.arms[i].sub)
			}
			on = collectNodes(on, opts, n.defSub)
		case coverFor:
			on = collectNodes(on, opts, n.body)
		}
	}
	return on
}

// coverOnceState is embedded in Program (declared here to keep all
// coverage structure in one file).
type coverOnceState struct {
	coverOnce sync.Once
	coverP    *coverPlan
}
