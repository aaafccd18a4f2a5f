package netlist

import (
	"math/rand/v2"
	"testing"
)

// randomSequential builds a random netlist of inverters, AND gates and
// flipflops over a few inputs. With feedback, some flipflops are
// rewired to read a later net, which closes sequential loops (never
// combinational ones: every rewired input is a DFF's).
func randomSequential(rng *rand.Rand, feedback bool) *Netlist {
	b := NewBuilder("rseq")
	var nets []NetID
	for i := 0; i < 2+rng.IntN(3); i++ {
		nets = append(nets, b.Input(""))
	}
	pick := func() NetID { return nets[rng.IntN(len(nets))] }
	var dffs []CellID
	for i := 0; i < 8+rng.IntN(30); i++ {
		switch rng.IntN(3) {
		case 0:
			dffs = append(dffs, CellID(b.NumCells()))
			nets = append(nets, b.DFF(pick()))
		case 1:
			nets = append(nets, b.Not(pick()))
		default:
			nets = append(nets, b.And(pick(), pick()))
		}
	}
	if feedback {
		for _, d := range dffs {
			if rng.IntN(3) == 0 {
				b.Rewire(d, 0, pick())
			}
		}
	}
	b.Output("", nets[len(nets)-1])
	return b.MustBuild()
}

// TestRegisterGraphMatchesClosure checks the one-pass register-graph
// analysis behind SequentialLevels, SequentialDepth and the feedback
// lint against a brute-force derivation: flipflop dependencies by
// fixed-point propagation over nets, loops by transitive closure, and
// levels by longest path when there are no loops.
func TestRegisterGraphMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	withLoops := 0
	for trial := 0; trial < 300; trial++ {
		n := randomSequential(rng, trial%2 == 1)
		rg := n.registerGraph()
		nd := len(rg.dffs)
		idx := make(map[CellID]int, nd)
		for i, cid := range rg.dffs {
			idx[cid] = i
		}

		// dep[net][p]: flipflop p's Q reaches net through logic alone.
		dep := make([][]bool, len(n.Nets))
		for i := range dep {
			dep[i] = make([]bool, nd)
		}
		for changed := true; changed; {
			changed = false
			for i := range n.Cells {
				c := &n.Cells[i]
				for _, out := range c.Out {
					for p := 0; p < nd; p++ {
						v := c.Type == DFF && idx[c.ID] == p
						for _, in := range c.In {
							v = v || (c.Type != DFF && dep[in][p])
						}
						if v && !dep[out][p] {
							dep[out][p], changed = true, true
						}
					}
				}
			}
		}
		// reach[p][d]: a chain of flipflops leads from p to d.
		reach := make([][]bool, nd)
		for p := range reach {
			reach[p] = make([]bool, nd)
		}
		for d, cid := range rg.dffs {
			for p := 0; p < nd; p++ {
				reach[p][d] = dep[n.Cells[cid].In[0]][p]
			}
		}
		for k := 0; k < nd; k++ {
			for i := 0; i < nd; i++ {
				for j := 0; j < nd; j++ {
					reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j])
				}
			}
		}

		loops := false
		for d := 0; d < nd; d++ {
			if rg.inLoop[d] != reach[d][d] {
				t.Fatalf("trial %d: DFF %d inLoop = %v, closure says %v", trial, d, rg.inLoop[d], reach[d][d])
			}
			loops = loops || reach[d][d]
		}
		levels, feedback := n.SequentialDepth()
		if feedback != loops || levels != rg.levels || n.SequentialLevels() != levels {
			t.Fatalf("trial %d: SequentialDepth = (%d, %v), SequentialLevels = %d, want (%d, %v)",
				trial, levels, feedback, n.SequentialLevels(), rg.levels, loops)
		}
		if loops {
			withLoops++
			continue
		}
		// Without loops the chains form a DAG: relax longest paths until
		// they settle (at most nd rounds).
		level := make([]int, nd)
		want := 0
		for round := 0; round <= nd; round++ {
			for d, cid := range rg.dffs {
				level[d] = 1
				for p := 0; p < nd; p++ {
					if dep[n.Cells[cid].In[0]][p] {
						level[d] = max(level[d], level[p]+1)
					}
				}
				want = max(want, level[d])
			}
		}
		if levels != want {
			t.Fatalf("trial %d: SequentialLevels = %d, longest chain %d", trial, levels, want)
		}
	}
	if withLoops == 0 {
		t.Fatal("no trial produced a feedback loop")
	}
}
