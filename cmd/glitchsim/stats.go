package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"glitchsim"
	"glitchsim/internal/power"
	"glitchsim/internal/report"
	"glitchsim/internal/sim"
	"glitchsim/internal/stats"
	"glitchsim/internal/stimulus"
)

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	sel := addCircuitFlags(fs, "dirdet8")
	cycles := fs.Int("cycles", 2000, "simulated cycles")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := sel.build()
	if err != nil {
		return err
	}
	collector := stats.NewCollector(n, nil)
	s := sim.New(n, sim.Options{})
	s.AttachMonitor(collector)
	src := stimulus.NewRandom(n.InputWidth(), *seed)
	for i := 0; i < *cycles; i++ {
		if err := s.Step(src.Next()); err != nil {
			return err
		}
	}
	buses := make([]string, 0, len(n.Buses))
	for name := range n.Buses {
		buses = append(buses, name)
	}
	sort.Strings(buses)
	tb := report.NewTable(fmt.Sprintf("signal statistics of %s (%d random cycles)", n.Name, *cycles),
		"bus", "bits", "P(1)", "toggle rate", "|lag-1 autocorr|")
	for _, bus := range buses {
		sum := collector.Bus(bus)
		tb.AddRowf(bus, len(n.Bus(bus)), sum.MeanProb, sum.MeanToggle, sum.MeanAbsAutocorr)
	}
	fmt.Println(tb)
	return nil
}

func cmdPower(args []string) error {
	fs := flag.NewFlagSet("power", flag.ExitOnError)
	sel := addCircuitFlags(fs, "dirdet8r")
	cycles := fs.Int("cycles", 500, "measured cycles")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	top := fs.Int("top", 12, "list the N hottest nets")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := sel.build()
	if err != nil {
		return err
	}
	tech := glitchsim.DefaultTech()
	counter, err := engine.MeasureDetailed(context.Background(), glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(n),
		Config:  glitchsim.Config{Cycles: *cycles, Seed: *seed},
	})
	if err != nil {
		return err
	}
	bd := power.FromActivity(counter, tech)
	fmt.Printf("%s: %v\n\n", n.Name, bd)
	if *top > 0 {
		tb := report.NewTable("hottest combinational nets",
			"net", "uW", "rising/cycle", "cap fF")
		for _, np := range power.TopConsumers(counter, tech, *top) {
			tb.AddRowf(np.Net, np.PowerW*1e6,
				float64(np.Rising)/float64(counter.Cycles()), np.CapF*1e15)
		}
		fmt.Println(tb)
	}
	return nil
}

func cmdJSON(args []string) error {
	fs := flag.NewFlagSet("json", flag.ExitOnError)
	sel := addCircuitFlags(fs, "rca8")
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
	return n.WriteJSON(w)
}
