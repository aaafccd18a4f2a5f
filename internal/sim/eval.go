package sim

// Table-driven three-valued cell evaluation for the event loop. The
// general netlist.Eval is a readable switch over variadic logic ops; the
// hot path replaces it with small lookup tables built from that same
// reference implementation at init, so the two can never drift apart.
// logic.V values are 0 (X), 1 (L0) and 2 (L1), so a k-input table is
// indexed in base 3.

import (
	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

var (
	notT [3]logic.V
	andT [9]logic.V
	orT  [9]logic.V
	xorT [9]logic.V
	haST [9]logic.V // half-adder sum
	haCT [9]logic.V // half-adder carry
	faST [27]logic.V
	faCT [27]logic.V
	majT [27]logic.V
	muxT [27]logic.V
)

func init() {
	vals := [3]logic.V{logic.X, logic.L0, logic.L1}
	for i, a := range vals {
		notT[i] = logic.Not(a)
		for j, b := range vals {
			andT[i*3+j] = logic.And(a, b)
			orT[i*3+j] = logic.Or(a, b)
			xorT[i*3+j] = logic.Xor(a, b)
			haST[i*3+j], haCT[i*3+j] = logic.HalfAdd(a, b)
			for k, c := range vals {
				faST[i*9+j*3+k], faCT[i*9+j*3+k] = logic.FullAdd(a, b, c)
				majT[i*9+j*3+k] = logic.Maj3(a, b, c)
				muxT[i*9+j*3+k] = logic.Mux(c, a, b) // in order [a, b, sel]
			}
		}
	}
}

// evalCell computes a cell's outputs from the current net values,
// returning the second output only for two-output (HA/FA) cells.
//
//glitchsim:hotpath
func (s *Simulator) evalCell(cid netlist.CellID) (o0, o1 logic.V, twoOut bool) {
	c := s.c
	v := s.values
	in := c.inNets[c.inStart[cid]:c.inStart[cid+1]]
	switch c.cellType[cid] {
	case netlist.FA:
		idx := int(v[in[0]])*9 + int(v[in[1]])*3 + int(v[in[2]])
		return faST[idx], faCT[idx], true
	case netlist.HA:
		idx := int(v[in[0]])*3 + int(v[in[1]])
		return haST[idx], haCT[idx], true
	case netlist.And:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = andT[int(r)*3+int(v[id])]
		}
		return r, 0, false
	case netlist.Nand:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = andT[int(r)*3+int(v[id])]
		}
		return notT[r], 0, false
	case netlist.Or:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = orT[int(r)*3+int(v[id])]
		}
		return r, 0, false
	case netlist.Nor:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = orT[int(r)*3+int(v[id])]
		}
		return notT[r], 0, false
	case netlist.Xor:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = xorT[int(r)*3+int(v[id])]
		}
		return r, 0, false
	case netlist.Xnor:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = xorT[int(r)*3+int(v[id])]
		}
		return notT[r], 0, false
	case netlist.Not:
		return notT[v[in[0]]], 0, false
	case netlist.Buf:
		return v[in[0]], 0, false
	case netlist.Mux2:
		return muxT[int(v[in[0]])*9+int(v[in[1]])*3+int(v[in[2]])], 0, false
	case netlist.Maj3:
		return majT[int(v[in[0]])*9+int(v[in[1]])*3+int(v[in[2]])], 0, false
	case netlist.Const0:
		return logic.L0, 0, false
	case netlist.Const1:
		return logic.L1, 0, false
	default:
		// Compile keeps DFFs out of every fanout list, and every
		// combinational type has a case above.
		panic("sim: evalCell on a cell type without a case")
	}
}
