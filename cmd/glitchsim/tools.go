package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"glitchsim"
	"glitchsim/internal/delay"
	"glitchsim/internal/registry"
	"glitchsim/internal/retime"
	"glitchsim/internal/service"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/internal/vcd"
)

// delayFlag builds the delay model from -dsum/-dcarry/-typical flags.
func delayFlag(dsum, dcarry int, typical bool) delay.Model {
	return registry.DelayModel(dsum, dcarry, typical)
}

// delayValue is the value of a -dsum/-dcarry flag: a delay in [0,
// MaxInt32], the range a delay table holds, so a value outside it is a
// usage error rather than a panic in the simulator.
type delayValue int

func (d *delayValue) String() string { return strconv.Itoa(int(*d)) }

func (d *delayValue) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil || v < 0 || v > math.MaxInt32 {
		return fmt.Errorf("want a delay between 0 and %d", math.MaxInt32)
	}
	*d = delayValue(v)
	return nil
}

// delayVar defines a delay flag with default 1 on fs.
func delayVar(fs *flag.FlagSet, name, usage string) *delayValue {
	d := delayValue(1)
	fs.Var(&d, name, usage)
	return &d
}

// countValue is the value of a count flag (-cycles, -workers, -lanes):
// a non-negative int, the range the service accepts, so a negative
// value is a usage error rather than an empty report or a run-time
// failure.
type countValue int

func (c *countValue) String() string { return strconv.Itoa(int(*c)) }

func (c *countValue) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil || v < 0 {
		return errors.New("want a non-negative count")
	}
	*c = countValue(v)
	return nil
}

// countVar defines a count flag with default def on fs.
func countVar(fs *flag.FlagSet, name string, def int, usage string) *int {
	c := countValue(def)
	fs.Var(&c, name, usage)
	return (*int)(&c)
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	sel := addCircuitFlags(fs, "rca16")
	cycles := countVar(fs, "cycles", 500, "`N` measured cycles")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	dsum := delayVar(fs, "dsum", "full-adder sum `delay`")
	dcarry := delayVar(fs, "dcarry", "full-adder carry `delay`")
	typical := fs.Bool("typical", false, "use the heterogeneous typical delay model")
	inertial := fs.Bool("inertial", false, "inertial instead of transport delay")
	top := fs.Int("top", 10, "list the N most glitching nets")
	stim := fs.String("stimulus", "", "replay primary-input waveforms from a VCD file instead of random stimulus")
	stimPeriod := fs.Int("stimulus-period", 0, "VCD time units per clock cycle when replaying (0 = logic depth + 2, the vcd subcommand's period)")
	budgetEvents := fs.Uint64("budget-events", 0, "abort after N kernel events, reporting the partial result (0 = unlimited)")
	budgetWall := fs.Duration("budget-wall", 0, "abort after the given wall-clock time, reporting the partial result (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := sel.build()
	if err != nil {
		return err
	}
	cfg := glitchsim.Config{
		Cycles: *cycles, Seed: *seed,
		Delay: delayFlag(int(*dsum), int(*dcarry), *typical), Inertial: *inertial,
		Budget: glitchsim.Budget{Events: *budgetEvents, WallClock: *budgetWall},
	}
	if *stim != "" {
		f, err := os.Open(*stim)
		if err != nil {
			return err
		}
		dump, err := vcd.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		period := *stimPeriod
		if period == 0 {
			period = n.LogicDepth() + 2
		}
		src, have, err := dump.Replay(n, period)
		if err != nil {
			return err
		}
		cfg.Source = src
		if *cycles > have {
			fmt.Fprintf(os.Stderr, "note: %s covers %d cycles, replay wraps around to fill %d\n", *stim, have, *cycles)
		}
	}
	kernel, err := engine.SelectedKernel(glitchsim.MeasureRequest{Circuit: glitchsim.CircuitFromNetlist(n), Config: cfg})
	if err != nil {
		return err
	}
	if !jsonOut() {
		fmt.Print(n.Summary())
	}
	counter, err := engine.MeasureDetailed(context.Background(),
		glitchsim.MeasureRequest{Circuit: glitchsim.CircuitFromNetlist(n), Config: cfg})
	if err != nil {
		// A budget trip still carries the partial counter: report it,
		// flagged, instead of discarding the completed work.
		if counter == nil || !errors.Is(err, glitchsim.ErrBudgetExceeded) {
			return err
		}
		fmt.Fprintf(os.Stderr, "note: %v; reporting the partial result\n", err)
	}
	if jsonOut() {
		return emitJSON(service.MeasureResponse{
			Activity: service.ActivityFrom(glitchsim.ActivityFromCounter(n.Name, counter)),
			Kernel:   string(kernel),
		})
	}
	rep := counter.Report()
	fmt.Printf("kernel: %s\n", kernel)
	fmt.Printf("\n%v\n", rep)
	fmt.Printf("balance reduction limit: %.2f\n\n", rep.BalanceLimitFactor())
	if *top > 0 && len(rep.PerNet) > 0 {
		fmt.Printf("most glitching nets:\n")
		for i, nr := range rep.PerNet {
			if i >= *top {
				break
			}
			fmt.Printf("  %-16s useful=%-6d useless=%-6d glitches=%d\n",
				nr.Net, nr.Stats.Useful, nr.Stats.Useless, nr.Stats.Glitches)
		}
	}
	return nil
}

func cmdRetime(args []string) error {
	fs := flag.NewFlagSet("retime", flag.ExitOnError)
	sel := addCircuitFlags(fs, "dirdet8r")
	period := fs.Int("period", 0, "target clock period (0 = minimize)")
	stages := fs.Int("stages", 0, "extra pipeline stages to add")
	cycles := countVar(fs, "cycles", 200, "`N` cycles for before/after activity measurement")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := sel.build()
	if err != nil {
		return err
	}
	dm := delay.Unit()
	var res retime.Result
	if *period > 0 && *stages == 0 {
		res, err = retime.ForPeriod(n, dm, *period, 64)
	} else {
		res, err = retime.Retime(n, dm, retime.Options{TargetPeriod: *period, ExtraLatency: *stages})
	}
	if err != nil {
		return err
	}
	fmt.Printf("retimed %s: period %d, latency +%d cycles, %d flipflops (was %d)\n\n",
		n.Name, res.Period, res.Latency, res.Registers, n.NumDFFs())
	ctx := context.Background()
	before, err := engine.Measure(ctx, glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(n),
		Config:  glitchsim.Config{Cycles: *cycles, Seed: *seed},
	})
	if err != nil {
		return err
	}
	after, err := engine.Measure(ctx, glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(res.Netlist),
		Config:  glitchsim.Config{Cycles: *cycles, Seed: *seed, Warmup: res.Latency + 16},
	})
	if err != nil {
		return err
	}
	fmt.Printf("before: %v\nafter:  %v\n", before, after)
	tech := glitchsim.DefaultTech()
	bdB, _, err := engine.MeasurePower(ctx, glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(n),
		Config:  glitchsim.Config{Cycles: *cycles, Seed: *seed},
		Tech:    &tech,
	})
	if err != nil {
		return err
	}
	bdA, _, err := engine.MeasurePower(ctx, glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(res.Netlist),
		Config:  glitchsim.Config{Cycles: *cycles, Seed: *seed, Warmup: res.Latency + 16},
		Tech:    &tech,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\npower before: %v\npower after:  %v\n", bdB, bdA)
	return nil
}

func cmdVCD(args []string) error {
	fs := flag.NewFlagSet("vcd", flag.ExitOnError)
	sel := addCircuitFlags(fs, "hazard")
	cycles := countVar(fs, "cycles", 16, "`N` cycles to dump")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	out := fs.String("out", "wave.vcd", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := sel.build()
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	period := n.LogicDepth() + 2
	w, err := vcd.New(f, n, nil, period)
	if err != nil {
		return err
	}
	s := sim.New(n, sim.Options{})
	s.AttachMonitor(w)
	src := stimulus.NewRandom(n.InputWidth(), *seed)
	for i := 0; i < *cycles; i++ {
		if err := s.Step(src.Next()); err != nil {
			return err
		}
	}
	if err := w.Flush(*cycles); err != nil {
		return err
	}
	fmt.Printf("wrote %d cycles of %s (clock period %d time units) to %s\n",
		*cycles, n.Name, period, *out)
	return nil
}

func cmdDOT(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	sel := addCircuitFlags(fs, "rca4")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := sel.build()
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return n.WriteDOT(w)
}
