package retime

import (
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/delay"
	"glitchsim/internal/stimulus"
	"glitchsim/internal/testutil"
	"glitchsim/netlist"
)

func TestWDMatricesRCA(t *testing.T) {
	// 4-bit FA-cell RCA, unit delay, pipelined by 1: check a few matrix
	// entries by hand. Vertices: const0, FA0..FA3, host.
	n := circuits.NewRCA(4, circuits.Cells)
	g := FromNetlist(n, delay.Unit(), 1)
	wd := g.ComputeWD()
	// Find the FA vertices by their cell delays (consts have d=0).
	var fas []int
	for v := 0; v < g.V; v++ {
		if g.d[v] == 1 {
			fas = append(fas, v)
		}
	}
	if len(fas) != 4 {
		t.Fatalf("expected 4 FA vertices, got %d", len(fas))
	}
	// Carry chain FA0 -> FA3: zero registers, delay 4.
	if wd.W[fas[0]][fas[3]] != 0 {
		t.Errorf("W(FA0,FA3) = %d, want 0", wd.W[fas[0]][fas[3]])
	}
	if wd.D[fas[0]][fas[3]] != 4 {
		t.Errorf("D(FA0,FA3) = %d, want 4", wd.D[fas[0]][fas[3]])
	}
	// Host -> FA0 carries the pipeline register.
	if wd.W[g.Host][fas[0]] != 1 {
		t.Errorf("W(host,FA0) = %d, want 1", wd.W[g.Host][fas[0]])
	}
	// Diagonal: empty path.
	if wd.W[fas[2]][fas[2]] != 0 || wd.D[fas[2]][fas[2]] != 1 {
		t.Errorf("diagonal entry wrong: W=%d D=%d", wd.W[fas[2]][fas[2]], wd.D[fas[2]][fas[2]])
	}
}

// TestPropertyFEASMatchesWDOracle: the production FEAS algorithm and the
// independently derived W/D + Bellman-Ford oracle must agree on
// feasibility for every period, and find the same minimum period, on
// random circuits.
func TestPropertyFEASMatchesWDOracle(t *testing.T) {
	rng := stimulus.NewPRNG(123)
	for trial := 0; trial < 20; trial++ {
		n := testutil.RandomNetlist(rng, testutil.RandConfig{
			Inputs:       3 + int(rng.Uintn(3)),
			Gates:        8 + int(rng.Uintn(25)),
			Outputs:      2,
			WithDFFs:     trial%2 == 0,
			WithCompound: trial%3 == 0,
		})
		stages := int(rng.Uintn(3))
		g := FromNetlist(n, delay.Unit(), stages)
		wd := g.ComputeWD()
		cp := g.ClockPeriod(nil)
		for c := 0; c <= cp+1; c++ {
			_, okFEAS := g.Feasible(c)
			rWD, okWD := g.FeasibleWD(wd, c)
			if okFEAS != okWD {
				t.Fatalf("trial %d stages %d period %d: FEAS says %v, WD oracle says %v",
					trial, stages, c, okFEAS, okWD)
			}
			if !okWD {
				continue
			}
			// The oracle's retiming must itself be legal and meet c.
			for _, e := range g.Edges {
				if g.wr(e, rWD) < 0 {
					t.Fatalf("trial %d period %d: WD retiming has negative edge weight", trial, c)
				}
			}
			if got := g.ClockPeriod(rWD); got > c {
				t.Fatalf("trial %d: WD retiming achieves period %d > %d", trial, got, c)
			}
			if rWD[g.Host] != 0 {
				t.Fatalf("trial %d: WD retiming not normalized", trial)
			}
		}
		cFEAS, _ := g.MinPeriod()
		cWD, rWD := g.MinPeriodWD()
		if cFEAS != cWD {
			t.Fatalf("trial %d: min period FEAS %d vs WD %d", trial, cFEAS, cWD)
		}
		if got := g.ClockPeriod(rWD); got > cWD {
			t.Fatalf("trial %d: WD min-period retiming does not achieve its period", trial)
		}
	}
}

// TestPropertyForPeriodDepthMinimal: on random netlists, with and
// without flipflops, under unit and typical delay, the depth ForPeriod
// settles on is the smallest the W/D oracle accepts, and its lower
// bound never exceeds it. When ForPeriod gives up, the oracle finds no
// retiming at the deepest allowed depth either (feasibility only grows
// with depth).
func TestPropertyForPeriodDepthMinimal(t *testing.T) {
	rng := stimulus.NewPRNG(2718)
	oracle := func(n *netlist.Netlist, dm delay.Model, k, c int) bool {
		g := FromNetlist(n, dm, k)
		_, ok := g.FeasibleWD(g.ComputeWD(), c)
		return ok
	}
	found := 0
	for trial := 0; trial < 24; trial++ {
		n := testutil.RandomNetlist(rng, testutil.RandConfig{
			Inputs:       3 + int(rng.Uintn(3)),
			Gates:        8 + int(rng.Uintn(25)),
			Outputs:      2,
			WithDFFs:     trial%2 == 0,
			WithCompound: trial%3 == 0,
		})
		for _, dm := range []delay.Model{delay.Unit(), delay.Typical()} {
			g := FromNetlist(n, dm, 0)
			cp := g.ClockPeriod(nil)
			const maxStages = 6
			for _, c := range []int{cp, cp / 2, cp / 3, cp / 5, 1} {
				res, err := ForPeriod(n, dm, c, maxStages)
				if err != nil {
					if g.cellsFit(c) && oracle(n, dm, maxStages, c) {
						t.Fatalf("trial %d period %d: ForPeriod failed (%v), oracle feasible at depth %d", trial, c, err, maxStages)
					}
					continue
				}
				found++
				k := res.Latency
				if !oracle(n, dm, k, c) {
					t.Fatalf("trial %d period %d: oracle rejects depth %d", trial, c, k)
				}
				if k > 0 && oracle(n, dm, k-1, c) {
					t.Fatalf("trial %d period %d: depth %d not minimal, oracle accepts %d", trial, c, k, k-1)
				}
				if lb := g.latencyBound(c); lb > k {
					t.Fatalf("trial %d period %d: lower bound %d exceeds depth %d", trial, c, lb, k)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no period was reachable")
	}
}

func TestMinPeriodWDOnCombinational(t *testing.T) {
	n := circuits.NewRCA(8, circuits.Cells)
	g := FromNetlist(n, delay.Unit(), 0)
	c, r := g.MinPeriodWD()
	if c != 8 {
		t.Errorf("combinational RCA min period %d, want 8", c)
	}
	for v, rv := range r {
		_ = v
		if rv != 0 {
			// Any legal retiming of an unregistered feedforward circuit
			// keeps all weights 0 only if r is constant; normalized to
			// host=0 that means all-zero.
			t.Errorf("nontrivial retiming %v of combinational circuit", r)
			break
		}
	}
}
