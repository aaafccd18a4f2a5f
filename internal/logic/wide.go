package logic

// 64-lane word-parallel three-valued logic: the data plane of the
// parallel-pattern simulation kernel. A W packs one logic level for each
// of 64 independent simulation lanes into a dual-rail (uint64, uint64)
// pair, and the *W functions below evaluate a gate for all 64 lanes with
// a handful of branch-free bitwise instructions.
//
// Encoding (dual rail): bit l of Zero set means lane l holds 0, bit l of
// One set means lane l holds 1, neither set means lane l is X. Both set
// is invalid and never produced by the operations here.
//
// Every operation is the lane-wise image of the corresponding scalar
// function in logic.go (Kleene three-valued semantics). That claim is
// not taken on faith: init below replays every input combination of
// every wide operation against the scalar reference, so the two
// implementations cannot drift apart — a mismatch panics at program
// start, before any simulation runs.

import "fmt"

// Lanes is the number of independent simulation lanes a W packs: the
// word width of the bit-parallel kernel.
const Lanes = 64

// W holds one three-valued logic level per lane, dual-rail encoded.
type W struct {
	Zero, One uint64
}

// AllX is the W with every lane unknown.
var AllX = W{}

// SplatW returns the W holding v in every lane.
//
//glitchsim:hotpath
func SplatW(v V) W {
	switch v {
	case L0:
		return W{Zero: ^uint64(0)}
	case L1:
		return W{One: ^uint64(0)}
	default:
		return W{}
	}
}

// Lane extracts the value of one lane.
//
//glitchsim:hotpath
func (w W) Lane(l int) V {
	bit := uint64(1) << uint(l)
	switch {
	case w.Zero&bit != 0:
		return L0
	case w.One&bit != 0:
		return L1
	default:
		return X
	}
}

// SetLane stores v into one lane.
//
//glitchsim:hotpath
func (w *W) SetLane(l int, v V) {
	bit := uint64(1) << uint(l)
	w.Zero &^= bit
	w.One &^= bit
	switch v {
	case L0:
		w.Zero |= bit
	case L1:
		w.One |= bit
	}
}

// KnownMask returns the lanes holding a strong (binary) level.
//
//glitchsim:hotpath
func (w W) KnownMask() uint64 { return w.Zero | w.One }

// DiffMask returns the mask of lanes whose level differs between a and
// b. Valid words never set both rails of one lane, so a lane's level
// differs exactly when either of its rail bits does — including
// transitions from or to X.
//
//glitchsim:hotpath
func DiffMask(a, b W) uint64 { return (a.Zero ^ b.Zero) | (a.One ^ b.One) }

// Merge returns w with the lanes selected by mask replaced by v's: the
// masked update behind the wide kernel's inertial holds, where the
// lanes whose window changed keep the output's previous value.
//
//glitchsim:hotpath
func (w W) Merge(v W, mask uint64) W {
	return W{
		Zero: (w.Zero &^ mask) | (v.Zero & mask),
		One:  (w.One &^ mask) | (v.One & mask),
	}
}

// String renders the word lane 63 first, e.g. "xx…0101", for debugging.
func (w W) String() string {
	buf := make([]byte, Lanes)
	for l := 0; l < Lanes; l++ {
		buf[Lanes-1-l] = w.Lane(l).String()[0]
	}
	return string(buf)
}

// NotW is the lane-wise Not: the rails swap.
//
//glitchsim:hotpath
func NotW(a W) W { return W{Zero: a.One, One: a.Zero} }

// AndW is the lane-wise And: any 0 forces 0, both 1 gives 1, X otherwise.
//
//glitchsim:hotpath
func AndW(a, b W) W {
	return W{Zero: a.Zero | b.Zero, One: a.One & b.One}
}

// NandW is the lane-wise Nand.
//
//glitchsim:hotpath
func NandW(a, b W) W {
	return W{Zero: a.One & b.One, One: a.Zero | b.Zero}
}

// OrW is the lane-wise Or: any 1 forces 1, both 0 gives 0, X otherwise.
//
//glitchsim:hotpath
func OrW(a, b W) W {
	return W{Zero: a.Zero & b.Zero, One: a.One | b.One}
}

// NorW is the lane-wise Nor.
//
//glitchsim:hotpath
func NorW(a, b W) W {
	return W{Zero: a.One | b.One, One: a.Zero & b.Zero}
}

// XorW is the lane-wise Xor: X if either input is X.
//
//glitchsim:hotpath
func XorW(a, b W) W {
	k := (a.Zero | a.One) & (b.Zero | b.One)
	v := a.One ^ b.One
	return W{Zero: k &^ v, One: k & v}
}

// XnorW is the lane-wise Xnor.
//
//glitchsim:hotpath
func XnorW(a, b W) W {
	k := (a.Zero | a.One) & (b.Zero | b.One)
	v := a.One ^ b.One
	return W{Zero: k & v, One: k &^ v}
}

// MuxW is the lane-wise Mux(sel, a, b): a when sel=0, b when sel=1, and
// for X selects the agreeing strong level of a and b if any.
//
//glitchsim:hotpath
func MuxW(sel, a, b W) W {
	return W{
		Zero: (sel.Zero & a.Zero) | (sel.One & b.Zero) | (a.Zero & b.Zero),
		One:  (sel.Zero & a.One) | (sel.One & b.One) | (a.One & b.One),
	}
}

// Maj3W is the lane-wise three-input majority (the carry function); the
// majority identity holds rail-wise under Kleene semantics.
//
//glitchsim:hotpath
func Maj3W(a, b, c W) W {
	return W{
		Zero: (a.Zero & b.Zero) | (a.Zero & c.Zero) | (b.Zero & c.Zero),
		One:  (a.One & b.One) | (a.One & c.One) | (b.One & c.One),
	}
}

// HalfAddW is the lane-wise half adder.
//
//glitchsim:hotpath
func HalfAddW(a, b W) (sum, carry W) {
	return XorW(a, b), AndW(a, b)
}

// FullAddW is the lane-wise full adder: three-input parity for the sum
// (X if any input is X) and majority for the carry.
//
//glitchsim:hotpath
func FullAddW(a, b, cin W) (sum, cout W) {
	k := (a.Zero | a.One) & (b.Zero | b.One) & (cin.Zero | cin.One)
	v := a.One ^ b.One ^ cin.One
	return W{Zero: k &^ v, One: k & v}, Maj3W(a, b, cin)
}

// init cross-checks every wide operation against the scalar reference
// implementation for every combination of three-valued inputs: all 27
// (a, b, c) triples are packed one per lane and evaluated once per
// operation, then compared lane by lane. The wide kernel therefore can
// never silently diverge from the truth tables the scalar kernel (and
// netlist.Eval) are built on.
func init() {
	vals := [3]V{X, L0, L1}
	var wa, wb, wc W
	type triple struct{ a, b, c V }
	var triples [27]triple
	lane := 0
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				triples[lane] = triple{a, b, c}
				wa.SetLane(lane, a)
				wb.SetLane(lane, b)
				wc.SetLane(lane, c)
				lane++
			}
		}
	}
	check := func(name string, got W, want func(t triple) V) {
		for l, t := range triples {
			if g, w := got.Lane(l), want(t); g != w {
				panic(fmt.Sprintf("logic: wide %s diverges from scalar reference on (%v,%v,%v): got %v, want %v",
					name, t.a, t.b, t.c, g, w))
			}
		}
		if got.Zero&got.One != 0 {
			panic(fmt.Sprintf("logic: wide %s produced both rails set", name))
		}
	}
	check("not", NotW(wa), func(t triple) V { return Not(t.a) })
	check("and", AndW(wa, wb), func(t triple) V { return And(t.a, t.b) })
	check("nand", NandW(wa, wb), func(t triple) V { return Not(And(t.a, t.b)) })
	check("or", OrW(wa, wb), func(t triple) V { return Or(t.a, t.b) })
	check("nor", NorW(wa, wb), func(t triple) V { return Not(Or(t.a, t.b)) })
	check("xor", XorW(wa, wb), func(t triple) V { return Xor(t.a, t.b) })
	check("xnor", XnorW(wa, wb), func(t triple) V { return Not(Xor(t.a, t.b)) })
	check("mux", MuxW(wc, wa, wb), func(t triple) V { return Mux(t.c, t.a, t.b) })
	check("maj3", Maj3W(wa, wb, wc), func(t triple) V { return Maj3(t.a, t.b, t.c) })
	haS, haC := HalfAddW(wa, wb)
	check("ha-sum", haS, func(t triple) V { s, _ := HalfAdd(t.a, t.b); return s })
	check("ha-carry", haC, func(t triple) V { _, c := HalfAdd(t.a, t.b); return c })
	faS, faC := FullAddW(wa, wb, wc)
	check("fa-sum", faS, func(t triple) V { s, _ := FullAdd(t.a, t.b, t.c); return s })
	check("fa-carry", faC, func(t triple) V { _, c := FullAdd(t.a, t.b, t.c); return c })
}
