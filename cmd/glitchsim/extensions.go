package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"glitchsim"
	"glitchsim/internal/report"
)

func cmdBalance(args []string) error {
	fs := flag.NewFlagSet("balance", flag.ExitOnError)
	cycles := countVar(fs, "cycles", 300, "`N` measured cycles")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := engine.BalanceStudy(context.Background(),
		glitchsim.ExperimentRequest{Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	tb := report.NewTable("Delay-path balancing (the paper's §6 alternative to retiming)",
		"circuit", "L/F", "limit 1+L/F", "buffers", "core reduction", "total w/ buffers", "logic mW before", "after")
	for _, r := range rows {
		tb.AddRowf(r.Circuit, r.Before.LOverF(), r.PredictedFactor, r.Buffers,
			r.CoreFactor, r.TotalFactor, r.BeforeLogicMW, r.AfterLogicMW)
	}
	fmt.Println(tb)
	fmt.Println("Balancing removes every useless transition (core reduction hits the 1+L/F")
	fmt.Println("limit), but the padding buffers switch too — which is why §5 uses retiming.")
	return nil
}

func cmdAdders(args []string) error {
	fs := flag.NewFlagSet("adders", flag.ExitOnError)
	width := fs.Int("width", 16, "adder width")
	cycles := countVar(fs, "cycles", 500, "`N` measured cycles")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := engine.AdderStudy(context.Background(),
		glitchsim.ExperimentRequest{Width: *width, Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	tb := report.NewTable(fmt.Sprintf("Adder architecture comparison (%d-bit, %d random inputs)", *width, *cycles),
		"architecture", "cells", "depth", "total", "useful", "useless", "L/F")
	for _, r := range rows {
		tb.AddRowf(r.Arch, r.Cells, r.Depth, r.Transitions, r.Useful, r.Useless, r.LOverF())
	}
	fmt.Println(tb)
	return nil
}

func cmdCorr(args []string) error {
	fs := flag.NewFlagSet("corr", flag.ExitOnError)
	cycles := countVar(fs, "cycles", 4000, "`N` simulated cycles")
	seed := fs.Uint64("seed", 99, "video stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := engine.CorrelationStudy(context.Background(),
		glitchsim.ExperimentRequest{Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	tb := report.NewTable("Signal correlation through the direction detector (video stimulus)",
		"stage", "low-bit |autocorr|", "toggle rate")
	for _, r := range rows {
		tb.AddRowf(r.Stage, r.LowBitAutocorr, r.MeanToggle)
	}
	fmt.Println(tb)
	fmt.Println("§4.2's premise, measured: input correlation is destroyed by the abs-diff")
	fmt.Println("stage, so random stimulus is a fair model for everything behind it.")
	return nil
}

func cmdVerilog(args []string) error {
	fs := flag.NewFlagSet("verilog", flag.ExitOnError)
	sel := addCircuitFlags(fs, "rca16")
	out := fs.String("out", "", "output file (default stdout)")
	check := fs.Bool("check", true, "re-parse the output and verify the round trip")
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
	if err := glitchsim.ExportVerilog(w, n); err != nil {
		return err
	}
	if *check && *out != "" {
		f, err := os.Open(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		back, err := glitchsim.ImportVerilog(f)
		if err != nil {
			return fmt.Errorf("round-trip parse failed: %w", err)
		}
		fmt.Fprintf(os.Stderr, "round trip ok: %d cells, %d nets\n", back.NumCells(), back.NumNets())
	}
	return nil
}

func cmdMults(args []string) error {
	fs := flag.NewFlagSet("mults", flag.ExitOnError)
	width := fs.Int("width", 8, "multiplier width (even)")
	cycles := countVar(fs, "cycles", 500, "`N` measured cycles")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := engine.MultiplierStudy(context.Background(),
		glitchsim.ExperimentRequest{Width: *width, Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	tb := report.NewTable(fmt.Sprintf("Multiplier architecture comparison (%dx%d, %d random inputs)", *width, *width, *cycles),
		"architecture", "cells", "depth", "total", "useful", "useless", "L/F")
	for _, r := range rows {
		tb.AddRowf(r.Arch, r.Cells, r.Depth, r.Transitions, r.Useful, r.Useless, r.LOverF())
	}
	fmt.Println(tb)
	fmt.Println("The booth multiplier's recode/select trees glitch like the array despite")
	fmt.Println("having half the partial products; only the balanced wallace tree is quiet.")
	return nil
}
