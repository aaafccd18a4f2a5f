package sim_test

// Heap-mode checks: a delay model whose per-hop delays exceed the
// calendar window cap runs the event queue as a binary heap. The queue's
// own order test (TestEventQueueOrder) pins that both modes pop in the
// same order; these tests pin what the kernels make of it.

import (
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// hugeDelays returns a delay model beyond the calendar window cap (4096
// time units): full-adder sums take 6000, everything else 7. The event
// kernels run it on the heap; hugeGuard is a settle guard it fits under.
func hugeDelays() delay.Model {
	return delay.Func{F: func(c *netlist.Cell, pin int) int {
		if c.Type == netlist.FA && pin == netlist.PinSum {
			return 6000
		}
		return 7
	}, N: "huge"}
}

const hugeGuard = 1 << 22

// TestKernelEquivalenceHugeDelays: on the heap, every cycle of the
// scalar kernel settles at the zero-delay reference values of
// netlist.EvalOutputs, and its statistics equal a one-lane wide-event
// run's.
func TestKernelEquivalenceHugeDelays(t *testing.T) {
	nl := circuits.NewRCA(6, circuits.Cells)
	c := sim.Compile(nl)
	opts := sim.Options{Delay: hugeDelays(), MaxTimePerCycle: hugeGuard}
	const seed, cycles = 5, 25

	s := sim.NewFromCompiled(c, opts)
	counter := core.NewCounter(nl)
	s.AttachMonitor(counter)
	src := stimulus.NewRandom(nl.InputWidth(), seed)
	ref := make([]logic.V, nl.NumNets())
	settle := 0
	for cy := 0; cy < cycles; cy++ {
		pi := src.Next()
		if err := s.Step(pi); err != nil {
			t.Fatal(err)
		}
		settle = max(settle, s.SettleTime())
		for i, id := range nl.PIs {
			ref[id] = pi[i]
		}
		nl.EvalOutputs(ref)
		for i, want := range ref {
			if got := s.Value(netlist.NetID(i)); got != want {
				t.Fatalf("cycle %d: net %s settled at %v, reference %v", cy, nl.Nets[i].Name, got, want)
			}
		}
	}
	if settle < 6000 {
		t.Fatalf("largest settle time %d: the huge delays never applied", settle)
	}

	wide, _ := wideRun(t, c, eventDriven, opts, []uint64{seed}, cycles)
	if wide.Cycles() != counter.Cycles() {
		t.Fatalf("wide-event cycles %d, scalar %d", wide.Cycles(), counter.Cycles())
	}
	for i := 0; i < nl.NumNets(); i++ {
		id := netlist.NetID(i)
		if got, want := wide.Stats(id), counter.Stats(id); got != want {
			t.Fatalf("net %s: wide-event stats %+v, scalar %+v", nl.Nets[i].Name, got, want)
		}
	}
}
