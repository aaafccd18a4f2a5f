// Command glitchsim regenerates every table and figure of "Analysis and
// Reduction of Glitches in Synchronous Networks" (DATE 1995) and exposes
// the underlying tools: activity simulation, retiming, power estimation,
// VCD dumping and netlist export.
//
// Usage:
//
//	glitchsim <subcommand> [flags]
//
// Subcommands:
//
//	worstcase  §3.1/Figure 3: worst-case RCA transition count + probability
//	fig5       Figure 5: per-bit useful/useless transitions, analytic vs sim
//	table1     Table 1: array vs wallace multipliers, 8x8 and 16x16
//	table2     Table 2: dsum=dcarry vs dsum=2*dcarry
//	dirdet     §4.2: direction detector activity study
//	table3     Table 3: power breakdown of four retimed variants
//	fig10      Figure 10: power vs flipflop count sweep
//	sim        activity measurement of a named circuit
//	retime     retime/pipeline a named circuit and report the result
//	vcd        dump a VCD waveform of a simulation run
//	dot        write a Graphviz netlist drawing
//	lint       netlist lint pass: floating/dead/looping structure
//	ablate     extra studies: inertial, zero-delay, granularity, stimulus
//	all        run every paper experiment in sequence
package main

import (
	"flag"
	"fmt"
	"os"

	"glitchsim"
)

var commands = map[string]func(args []string) error{
	"worstcase": cmdWorstCase,
	"fig5":      cmdFig5,
	"table1":    cmdTable1,
	"table2":    cmdTable2,
	"dirdet":    cmdDirDet,
	"table3":    cmdTable3,
	"fig10":     cmdFig10,
	"sim":       cmdSim,
	"retime":    cmdRetime,
	"vcd":       cmdVCD,
	"dot":       cmdDOT,
	"ablate":    cmdAblate,
	"balance":   cmdBalance,
	"adders":    cmdAdders,
	"mults":     cmdMults,
	"corr":      cmdCorr,
	"verilog":   cmdVerilog,
	"lint":      cmdLint,
	"stats":     cmdStats,
	"power":     cmdPower,
	"json":      cmdJSON,
	"all":       cmdAll,
}

// engine runs every subcommand. main rebuilds it from -workers and
// -lanes; tests call commands directly and get the defaults.
var engine = glitchsim.NewEngine()

// workers is the shared worker-pool size for the experiment drivers,
// settable as either -workers or -parallel ahead of the subcommand.
var workers int

// lanes is the word-parallel stimulus lane count per measurement:
// 1 forces the historical single-stream simulation, 0 keeps the default
// of 64 lanes (one pattern per bit of a machine word).
var lanes int

// format selects the experiment output encoding: "text" renders the
// report tables, "json" emits the service layer's JSON shapes, so
// scripted pipelines see the same schema from the CLI and glitchsimd.
var format string

func init() {
	flag.Var((*countValue)(&workers), "workers", "measurement worker goroutines (0 = all CPUs)")
	flag.Var((*countValue)(&workers), "parallel", "alias for -workers")
	flag.Var((*countValue)(&lanes), "lanes", "word-parallel stimulus lanes per measurement (1 = scalar kernel, 0 = 64)")
	flag.StringVar(&format, "format", "text", "experiment output format: text or json")
}

// jsonOut reports whether -format json was requested.
func jsonOut() bool { return format == "json" }

func main() {
	flag.Usage = usage
	flag.Parse()
	engine = glitchsim.NewEngine(glitchsim.WithWorkers(workers), glitchsim.WithLanes(lanes))
	if format != "text" && format != "json" {
		fmt.Fprintf(os.Stderr, "glitchsim: unknown -format %q (text or json)\n", format)
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(os.Stderr, "glitchsim: unknown subcommand %q\n\n", args[0])
		usage()
		os.Exit(2)
	}
	if err := cmd(args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "glitchsim %s: %v\n", args[0], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `glitchsim - transition activity analysis and glitch reduction (DATE'95)

usage: glitchsim [-workers N] [-lanes N] [-format FMT] <subcommand> [flags]

global flags:
  -workers N    measurement worker goroutines for the experiment drivers
                (alias -parallel; 0 = all CPUs)
  -lanes N      word-parallel stimulus lanes per measurement (1 = scalar
                kernel, the historical single-stream numbers; 0 = 64)
  -format FMT   experiment output: text (default) or json (the glitchsimd
                service schema)

paper experiments:
  worstcase   worst-case RCA transitions and probability (Fig 3, §3.1)
  fig5        per-bit useful/useless transitions of an RCA (Figure 5)
  table1      array vs wallace multiplier activity (Table 1)
  table2      sum/carry delay imbalance study (Table 2)
  dirdet      direction detector activity (§4.2)
  table3      power breakdown of retimed variants (Table 3)
  fig10       power before retiming + vs-flipflop sweep (Figure 10)
  all         run all of the above

tools (every -circuit flag below also accepts -verilog file.v or
-netlist file.json to bring your own circuit):
  sim         measure activity of a circuit (-circuit, -cycles, -seed,
              -stimulus file.vcd replays recorded waveforms, ...)
  retime      retime/pipeline a circuit (-circuit, -period | -stages)
  vcd         dump a waveform (-circuit, -cycles, -out)
  dot         write a Graphviz drawing (-circuit, -out)
  ablate      inertial / zero-delay / granularity / stimulus studies
  balance     delay-path balancing study (the paper's other reduction)
  adders      ripple vs carry-select vs lookahead activity comparison
  mults       array vs wallace vs booth multiplier comparison
  corr        signal-correlation decay through the direction detector
  verilog     export a circuit as structural Verilog (-circuit, -out)
  json        export a circuit as JSON (-circuit, -out)
  lint        netlist lint: floating inputs, dead cells, loops, fanout
              profile (-circuit; nonzero exit on warnings)
  stats       per-bus signal statistics of a circuit
  power       power breakdown + hottest nets of a circuit

run 'glitchsim <subcommand> -h' for flags.
`)
}
