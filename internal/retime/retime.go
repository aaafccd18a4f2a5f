package retime

import (
	"fmt"

	"glitchsim/internal/delay"
	"glitchsim/netlist"
)

// Result describes a retimed circuit.
type Result struct {
	// Netlist is the rebuilt circuit.
	Netlist *netlist.Netlist
	// Period is the achieved minimum clock period under the delay model.
	Period int
	// Latency is the added pipeline depth: outputs lag the original
	// circuit by this many cycles.
	Latency int
	// Registers is the flipflop count of the rebuilt netlist.
	Registers int
}

// Options configures Retime.
type Options struct {
	// TargetPeriod is the desired clock period; 0 minimizes the period.
	TargetPeriod int
	// ExtraLatency adds pipeline stages on every input before retiming
	// (0 = pure retiming, I/O timing preserved).
	ExtraLatency int
	// Name names the resulting netlist; empty derives "<orig>_rt".
	Name string
}

// Retime re-registers a netlist under a delay model. With ExtraLatency=0
// it is a pure retiming (Leiserson–Saxe); with ExtraLatency=k it
// pipelines the circuit k levels deeper and then balances the registers
// for the target (or minimum) period — the paper's §5 transformation.
func Retime(n *netlist.Netlist, dm delay.Model, opts Options) (Result, error) {
	if dm == nil {
		dm = delay.Unit()
	}
	g := FromNetlist(n, dm, opts.ExtraLatency)
	var (
		c int
		r []int
	)
	if opts.TargetPeriod == 0 {
		c, r = g.MinPeriod()
	} else {
		var ok bool
		c = opts.TargetPeriod
		r, ok = g.Feasible(c)
		if !ok {
			return Result{}, fmt.Errorf("retime: period %d infeasible for %s with latency %d (min gate delay bound or insufficient registers)",
				c, n.Name, opts.ExtraLatency)
		}
	}
	out := g.Apply(r, opts.Name)
	return Result{
		Netlist:   out,
		Period:    g.ClockPeriod(r),
		Latency:   opts.ExtraLatency,
		Registers: out.NumDFFs(),
	}, nil
}

// Pipeline adds `stages` pipeline levels and retimes for the minimum
// achievable period: the paper's "introducing flipflops using retiming
// and pipelining". stages=0 is pure min-period retiming.
func Pipeline(n *netlist.Netlist, dm delay.Model, stages int) (Result, error) {
	return Retime(n, dm, Options{ExtraLatency: stages,
		Name: fmt.Sprintf("%s_p%d", n.Name, stages)})
}

// ForPeriod finds the smallest pipeline depth at which the target period
// becomes feasible and returns that retiming: "retimed for a different
// clock frequency" (paper §5). maxStages bounds the search.
//
// The graph is built once; each depth only re-weights the host's
// outgoing edges. The search starts at a proven lower bound on the depth
// (see latencyBound) and gives up at once when a single cell is slower
// than the period, which no depth can fix. Feasible returns only
// retimings it has verified, so no depth below the bound succeeds, and
// the first success is the smallest feasible depth.
func ForPeriod(n *netlist.Netlist, dm delay.Model, period, maxStages int) (Result, error) {
	if dm == nil {
		dm = delay.Unit()
	}
	g := FromNetlist(n, dm, 0)
	if g.cellsFit(period) {
		for k := g.latencyBound(period); k <= maxStages; k++ {
			g.setLatency(k)
			if r, ok := g.Feasible(period); ok {
				out := g.Apply(r, fmt.Sprintf("%s_t%d", n.Name, period))
				return Result{Netlist: out, Period: g.ClockPeriod(r), Latency: k, Registers: out.NumDFFs()}, nil
			}
		}
	}
	return Result{}, fmt.Errorf("retime: period %d not reachable for %s within %d pipeline stages",
		period, n.Name, maxStages)
}

// MinPeriodOf returns the minimum feasible clock period of the netlist
// under pure retiming (no added latency).
func MinPeriodOf(n *netlist.Netlist, dm delay.Model) int {
	if dm == nil {
		dm = delay.Unit()
	}
	c, _ := FromNetlist(n, dm, 0).MinPeriod()
	return c
}
