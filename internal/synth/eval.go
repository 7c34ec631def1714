package synth

import (
	"fmt"

	"uvllm/internal/verilog"
)

// State is the register file of a synthesized design.
type State map[string]uint64

// InitialState returns the registers at their init values.
func (n *Netlist) InitialState() State {
	st := State{}
	for _, r := range n.Regs {
		st[r.Name] = r.Init
	}
	return st
}

// evalAll computes every node value given register state and inputs.
// Nodes are in topological order by construction.
func (n *Netlist) evalAll(st State, in map[string]uint64) ([]uint64, error) {
	vals := make([]uint64, len(n.Nodes))
	for _, nd := range n.Nodes {
		v, err := n.evalNode(nd, vals, st, in)
		if err != nil {
			return nil, err
		}
		vals[nd.ID] = v
	}
	return vals, nil
}

func (n *Netlist) evalNode(nd *Node, vals []uint64, st State, in map[string]uint64) (uint64, error) {
	m := verilog.Mask(nd.Width)
	arg := func(i int) uint64 { return vals[nd.Args[i]] }
	switch nd.Kind {
	case OpConst:
		return nd.Value & m, nil
	case OpInput:
		return in[nd.Name] & m, nil
	case OpReg:
		return st[nd.Name] & m, nil
	case OpAdd:
		return (arg(0) + arg(1)) & m, nil
	case OpSub:
		return (arg(0) - arg(1)) & m, nil
	case OpMul:
		return (arg(0) * arg(1)) & m, nil
	case OpDiv:
		if arg(1) == 0 {
			return 0, nil
		}
		return (arg(0) / arg(1)) & m, nil
	case OpMod:
		if arg(1) == 0 {
			return 0, nil
		}
		return (arg(0) % arg(1)) & m, nil
	case OpAnd:
		return arg(0) & arg(1) & m, nil
	case OpOr:
		return (arg(0) | arg(1)) & m, nil
	case OpXor:
		return (arg(0) ^ arg(1)) & m, nil
	case OpXnor:
		return (^(arg(0) ^ arg(1))) & m, nil
	case OpNot:
		return (^arg(0)) & m, nil
	case OpNeg:
		return (-arg(0)) & m, nil
	case OpRedAnd:
		w := n.Nodes[nd.Args[0]].Width
		return b2u(arg(0) == verilog.Mask(w)), nil
	case OpRedOr:
		return b2u(arg(0) != 0), nil
	case OpRedXor:
		return uint64(popcount(arg(0)) & 1), nil
	case OpLogAnd:
		return b2u(arg(0) != 0 && arg(1) != 0), nil
	case OpLogOr:
		return b2u(arg(0) != 0 || arg(1) != 0), nil
	case OpLogNot:
		return b2u(arg(0) == 0), nil
	case OpEq:
		return b2u(arg(0) == arg(1)), nil
	case OpNe:
		return b2u(arg(0) != arg(1)), nil
	case OpLt:
		return b2u(arg(0) < arg(1)), nil
	case OpLe:
		return b2u(arg(0) <= arg(1)), nil
	case OpGt:
		return b2u(arg(0) > arg(1)), nil
	case OpGe:
		return b2u(arg(0) >= arg(1)), nil
	case OpShl:
		sh := arg(1)
		if sh >= 64 {
			return 0, nil
		}
		return (arg(0) << sh) & m, nil
	case OpShr:
		sh := arg(1)
		if sh >= 64 {
			return 0, nil
		}
		return (arg(0) >> sh) & m, nil
	case OpMux:
		if arg(0) != 0 {
			return arg(1) & m, nil
		}
		return arg(2) & m, nil
	case OpConcat:
		var out uint64
		for i, a := range nd.Args {
			w := n.Nodes[a].Width
			out = (out << uint(w)) | (vals[a] & verilog.Mask(w))
			_ = i
		}
		return out & m, nil
	case OpSlice:
		return (arg(0) >> uint(nd.Lo)) & verilog.Mask(nd.Hi-nd.Lo+1), nil
	}
	return 0, fmt.Errorf("synth: cannot evaluate node kind %v", nd.Kind)
}

// Step advances the design one clock cycle: inputs are applied, registers
// update through their next-state functions, and the post-edge outputs
// are returned along with the new state (matching the cycle protocol of
// sim.Harness and refmodel.Model).
func (n *Netlist) Step(st State, in map[string]uint64) (map[string]uint64, State, error) {
	vals, err := n.evalAll(st, in)
	if err != nil {
		return nil, nil, err
	}
	next := State{}
	for _, r := range n.Regs {
		w := n.Nodes[r.Node].Width
		next[r.Name] = vals[r.Next] & verilog.Mask(w)
	}
	// Post-edge combinational settle.
	vals2, err := n.evalAll(next, in)
	if err != nil {
		return nil, nil, err
	}
	outs := map[string]uint64{}
	for name, id := range n.Outputs {
		outs[name] = vals2[id]
	}
	return outs, next, nil
}

// EvalComb evaluates a purely combinational design (no registers).
func (n *Netlist) EvalComb(in map[string]uint64) (map[string]uint64, error) {
	vals, err := n.evalAll(State{}, in)
	if err != nil {
		return nil, err
	}
	outs := map[string]uint64{}
	for name, id := range n.Outputs {
		outs[name] = vals[id]
	}
	return outs, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func popcount(v uint64) int {
	c := 0
	for v != 0 {
		v &= v - 1
		c++
	}
	return c
}
