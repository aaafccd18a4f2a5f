// Package testutil provides deterministic random netlist generation for
// property-based tests: the simulator, balancer, retimer and Verilog
// round-trip tests all exercise the same structurally random circuits.
package testutil

import (
	"fmt"
	"slices"

	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// RandConfig controls random netlist generation.
type RandConfig struct {
	// Inputs is the number of primary inputs (≥1).
	Inputs int
	// Gates is the number of cells to generate.
	Gates int
	// Outputs is the number of primary outputs to mark (drawn from the
	// last generated nets; capped at the available net count).
	Outputs int
	// WithDFFs mixes D flipflops into the cell selection (feedforward
	// pipelines only — no feedback loops are created).
	WithDFFs bool
	// WithCompound mixes FA/HA compound cells into the selection.
	WithCompound bool
	// ZeroPreservingOnly restricts the cell mix to cells that map
	// all-zero inputs to zero outputs (AND/OR/XOR/BUF/FA/HA), which
	// keeps retiming exactly equivalent from reset.
	ZeroPreservingOnly bool
}

// RandomNetlist builds a deterministic random feedforward netlist from
// the given PRNG. Every generated circuit is valid by construction.
func RandomNetlist(rng *stimulus.PRNG, cfg RandConfig) *netlist.Netlist {
	if cfg.Inputs < 1 {
		cfg.Inputs = 1
	}
	if cfg.Gates < 1 {
		cfg.Gates = 1
	}
	if cfg.Outputs < 1 {
		cfg.Outputs = 1
	}
	b := netlist.NewBuilder(fmt.Sprintf("rand%d", rng.Uintn(1<<30)))
	var nets []netlist.NetID
	for i := 0; i < cfg.Inputs; i++ {
		nets = append(nets, b.Input(fmt.Sprintf("in%d", i)))
	}

	types := []netlist.CellType{netlist.And, netlist.Or, netlist.Xor, netlist.Buf}
	if !cfg.ZeroPreservingOnly {
		types = append(types, netlist.Not, netlist.Nand, netlist.Nor,
			netlist.Xnor, netlist.Mux2, netlist.Maj3)
	}
	if cfg.WithCompound {
		types = append(types, netlist.FA, netlist.HA)
	}
	if cfg.WithDFFs {
		types = append(types, netlist.DFF, netlist.DFF) // double weight
	}

	pick := func() netlist.NetID { return nets[rng.Uintn(uint64(len(nets)))] }
	for i := 0; i < cfg.Gates; i++ {
		t := types[rng.Uintn(uint64(len(types)))]
		min, max := t.InputRange()
		arity := min
		if max < 0 {
			arity = min + int(rng.Uintn(3)) // variadic gates: 2..4 inputs
		}
		ins := make([]netlist.NetID, arity)
		for j := range ins {
			ins[j] = pick()
		}
		outs := b.AddCell(t, "", ins...)
		nets = append(nets, outs...)
	}

	// Mark outputs from the most recently created nets (deep cone).
	count := cfg.Outputs
	if count > len(nets) {
		count = len(nets)
	}
	for i := 0; i < count; i++ {
		b.Output(fmt.Sprintf("out%d", i), nets[len(nets)-1-i])
	}
	return b.MustBuild()
}

// RandomVector returns a fully known random input vector for the
// netlist.
func RandomVector(rng *stimulus.PRNG, n *netlist.Netlist) []uint64 {
	v := make([]uint64, n.InputWidth())
	for i := range v {
		v[i] = rng.Uint64() & 1
	}
	return v
}

// RandomDAG builds a deterministic random combinational netlist shaped
// like the benchmark's uploaded circuits: 24–32 inputs and 800–1200
// cells of mixed types (two- and three-input gates, Mux2, Maj3, FA,
// Not) whose inputs come mostly from the last 512 nets, so paths run
// deep; every net no cell reads is folded by XOR cells into at most 32
// outputs.
func RandomDAG(rng *stimulus.PRNG) *netlist.Netlist {
	const window, maxOutputs = 512, 32
	types := []netlist.CellType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor,
		netlist.Mux2, netlist.Maj3, netlist.FA, netlist.Not,
	}
	b := netlist.NewBuilder(fmt.Sprintf("dag%d", rng.Uintn(1<<30)))
	nIn := 24 + int(rng.Uintn(9))
	nets := b.InputBus("in", nIn)
	read := make([]bool, len(nets))
	pick := func() netlist.NetID {
		if len(nets) > window && rng.Uintn(5) != 0 {
			return nets[len(nets)-1-int(rng.Uintn(window))]
		}
		return nets[rng.Uintn(uint64(len(nets)))]
	}
	for c, nCells := 0, 800+int(rng.Uintn(401)); c < nCells; c++ {
		t := types[rng.Uintn(uint64(len(types)))]
		k, _ := t.InputRange()
		if k == 2 && rng.Uintn(4) == 0 {
			k = 3
		}
		var ins []netlist.NetID
		if c < nIn {
			ins = append(ins, nets[c])
		}
		for len(ins) < k {
			if n := pick(); !slices.Contains(ins, n) {
				ins = append(ins, n)
			}
		}
		for _, in := range ins {
			read[in] = true
		}
		for _, out := range b.AddCell(t, "", ins...) {
			nets = append(nets, out)
			read = append(read, false)
		}
	}
	var unread []netlist.NetID
	for _, n := range nets {
		if !read[n] {
			unread = append(unread, n)
		}
	}
	for len(unread) > maxOutputs {
		unread = append(unread[2:], b.Xor(unread[0], unread[1]))
	}
	b.OutputBus("out", unread)
	return b.MustBuild()
}
