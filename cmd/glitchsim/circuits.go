package main

import (
	"flag"
	"fmt"
	"os"

	"glitchsim"
	"glitchsim/internal/registry"
	"glitchsim/netlist"
)

// The circuit catalogue lives in internal/registry, shared with the
// glitchsimd service so both resolve the same names. These helpers keep
// the CLI's historical shape, extended with user-supplied circuits: any
// subcommand with a -circuit flag also takes -verilog file.v or
// -netlist file.json, so the whole toolchain (sim, vcd, stats, power,
// retime, exports) runs on bring-your-own circuits.

func buildHazard() *netlist.Netlist {
	n, err := registry.Build("hazard")
	if err != nil {
		panic(err) // unreachable: "hazard" is a registry name
	}
	return n
}

func circuitNames() string { return registry.NameList() }

func buildCircuit(name string) (*netlist.Netlist, error) { return registry.Build(name) }

// circuitSelector bundles the three ways a subcommand names its
// circuit: -circuit <registry name>, -verilog <file.v>, -netlist
// <file.json>.
type circuitSelector struct {
	name    *string
	verilog *string
	json    *string
}

// addCircuitFlags registers the circuit-selection flags on a
// subcommand's flag set, with def as the default registry circuit.
func addCircuitFlags(fs *flag.FlagSet, def string) *circuitSelector {
	return &circuitSelector{
		name:    fs.String("circuit", def, "circuit name ("+circuitNames()+")"),
		verilog: fs.String("verilog", "", "read the circuit from a structural Verilog `file` instead of -circuit"),
		json:    fs.String("netlist", "", "read the circuit from a JSON netlist `file` instead of -circuit"),
	}
}

// build resolves the selected circuit through the shared Engine's
// circuit sources, so a file-based circuit measured twice compiles once
// (the compiled-netlist cache is fingerprint-keyed).
func (cs *circuitSelector) build() (*netlist.Netlist, error) {
	switch {
	case *cs.verilog != "" && *cs.json != "":
		return nil, fmt.Errorf("-verilog and -netlist are mutually exclusive")
	case *cs.verilog != "":
		src, err := os.ReadFile(*cs.verilog)
		if err != nil {
			return nil, err
		}
		return engine.Resolve(glitchsim.CircuitFromVerilog(src))
	case *cs.json != "":
		src, err := os.ReadFile(*cs.json)
		if err != nil {
			return nil, err
		}
		return engine.Resolve(glitchsim.CircuitFromJSON(src))
	default:
		return engine.Resolve(glitchsim.CircuitNamed(*cs.name))
	}
}
