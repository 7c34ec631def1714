package synth

import (
	"fmt"

	"uvllm/internal/verilog"
)

// Optimize runs constant folding, common subexpression elimination and
// dead code elimination to a (bounded) fixpoint, returning the number of
// logic cells removed. DCE runs inside the loop so that aliased cells are
// physically deleted before the next round re-examines them.
func (n *Netlist) Optimize() int {
	before := n.CellCount()
	for round := 0; round < 8; round++ {
		changed := n.ConstFold()
		changed += n.CSE()
		n.DCE()
		if changed == 0 {
			break
		}
	}
	return before - n.CellCount()
}

// ConstFold replaces cells whose operands are all constants with constant
// cells, and resolves constant-select muxes and full-width slices to
// aliases. Returns the number of cells changed.
func (n *Netlist) ConstFold() int {
	changed := 0
	alias := map[int]int{}
	re := func(id int) int {
		for {
			a, ok := alias[id]
			if !ok {
				return id
			}
			id = a
		}
	}
	vals := make([]uint64, len(n.Nodes))
	for _, nd := range n.Nodes {
		for i := range nd.Args {
			nd.Args[i] = re(nd.Args[i])
		}
		switch nd.Kind {
		case OpConst:
			vals[nd.ID] = nd.Value & verilog.Mask(nd.Width)
			continue
		case OpInput, OpReg:
			continue
		}
		allConst := true
		for _, a := range nd.Args {
			if n.Nodes[a].Kind != OpConst {
				allConst = false
				break
			}
		}
		if allConst && len(nd.Args) > 0 {
			v, err := n.evalNode(nd, vals, nil, nil)
			if err == nil {
				nd.Kind = OpConst
				nd.Value = v
				nd.Args = nil
				vals[nd.ID] = v
				changed++
				continue
			}
		}
		// Mux with constant select collapses to one branch.
		if nd.Kind == OpMux && n.Nodes[nd.Args[0]].Kind == OpConst {
			target := nd.Args[2]
			if n.Nodes[nd.Args[0]].Value != 0 {
				target = nd.Args[1]
			}
			if n.Nodes[target].Width >= nd.Width {
				alias[nd.ID] = target
				changed++
				continue
			}
		}
		// Mux with identical branches is a wire.
		if nd.Kind == OpMux && nd.Args[1] == nd.Args[2] {
			alias[nd.ID] = nd.Args[1]
			changed++
			continue
		}
		// Full-range slice of a same-width node is a wire.
		if nd.Kind == OpSlice && nd.Lo == 0 && nd.Hi == n.Nodes[nd.Args[0]].Width-1 {
			alias[nd.ID] = nd.Args[0]
			changed++
			continue
		}
	}
	n.applyAlias(func(id int) int { return re(id) })
	return changed
}

// CSE merges structurally identical cells. Returns merges performed.
func (n *Netlist) CSE() int {
	seen := map[string]int{}
	alias := map[int]int{}
	re := func(id int) int {
		for {
			a, ok := alias[id]
			if !ok {
				return id
			}
			id = a
		}
	}
	merged := 0
	for _, nd := range n.Nodes {
		for i := range nd.Args {
			nd.Args[i] = re(nd.Args[i])
		}
		var key string
		switch nd.Kind {
		case OpInput, OpReg:
			continue // named cells are unique
		default:
			key = fmt.Sprintf("%d|%d|%d|%d|%d|%v", nd.Kind, nd.Width, nd.Value, nd.Lo, nd.Hi, nd.Args)
		}
		if prev, ok := seen[key]; ok {
			alias[nd.ID] = prev
			merged++
			continue
		}
		seen[key] = nd.ID
	}
	n.applyAlias(re)
	return merged
}

// DCE removes cells not reachable from outputs or register next-state
// functions, compacting node IDs. Returns cells removed.
func (n *Netlist) DCE() int {
	live := make([]bool, len(n.Nodes))
	var mark func(int)
	mark = func(id int) {
		if live[id] {
			return
		}
		live[id] = true
		for _, a := range n.Nodes[id].Args {
			mark(a)
		}
	}
	for _, id := range n.Outputs {
		mark(id)
	}
	for _, r := range n.Regs {
		mark(r.Node)
		mark(r.Next)
	}
	for _, id := range n.Inputs {
		mark(id) // keep the interface intact
	}
	remap := make([]int, len(n.Nodes))
	var kept []*Node
	for _, nd := range n.Nodes {
		if !live[nd.ID] {
			remap[nd.ID] = -1
			continue
		}
		remap[nd.ID] = len(kept)
		nd.ID = len(kept)
		kept = append(kept, nd)
	}
	removed := len(n.Nodes) - len(kept)
	n.Nodes = kept
	for _, nd := range n.Nodes {
		for i := range nd.Args {
			nd.Args[i] = remap[nd.Args[i]]
		}
	}
	n.applyRemap(remap)
	return removed
}

func (n *Netlist) applyAlias(re func(int) int) {
	for name, id := range n.Outputs {
		n.Outputs[name] = re(id)
	}
	for i := range n.Regs {
		n.Regs[i].Next = re(n.Regs[i].Next)
	}
	for _, nd := range n.Nodes {
		for i := range nd.Args {
			nd.Args[i] = re(nd.Args[i])
		}
	}
}

func (n *Netlist) applyRemap(remap []int) {
	for name, id := range n.Outputs {
		n.Outputs[name] = remap[id]
	}
	for name, id := range n.Inputs {
		n.Inputs[name] = remap[id]
	}
	for i := range n.Regs {
		n.Regs[i].Node = remap[n.Regs[i].Node]
		n.Regs[i].Next = remap[n.Regs[i].Next]
	}
}
