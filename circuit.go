package glitchsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"glitchsim/internal/registry"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

// Circuit is a reference to a gate-level circuit, resolvable by an
// Engine to a *netlist.Netlist. It makes arbitrary user circuits
// first-class across every measurement entry point: the same request
// field accepts a built-in registry name, a netlist built with the
// public netlist.Builder, structural Verilog source, or the JSON wire
// format. The zero Circuit is empty (IsZero reports true); construct
// references with CircuitNamed, CircuitFromNetlist, CircuitFromVerilog,
// CircuitFromJSON or CircuitFromFile.
//
// Source-form references (Verilog/JSON) parse lazily on first
// resolution and memoize the result, so a Circuit value reused across
// jobs parses once; the Engine's fingerprint-keyed cache then makes
// repeated measurements share one compiled form no matter how the
// circuit was described.
type Circuit struct {
	format  circuitFormat
	name    string
	netlist *netlist.Netlist
	memo    *circuitMemo
	// fingerprint is netlist's fingerprint when the engine computed it
	// already (see fingerprinted); "" means unknown.
	fingerprint string
}

type circuitFormat uint8

const (
	circuitZero circuitFormat = iota
	circuitName
	circuitNetlist
	circuitVerilog
	circuitJSON
)

// circuitMemo caches the parse of a source-form Circuit. Copies of the
// Circuit value share the memo, so each reference parses at most once;
// the source bytes are released after the parse (srcLen keeps String
// informative), so a long-lived Circuit does not pin a large upload.
type circuitMemo struct {
	src    []byte
	srcLen int
	once   sync.Once
	n      *netlist.Netlist
	err    error
}

func newCircuitMemo(src []byte) *circuitMemo {
	return &circuitMemo{src: src, srcLen: len(src)}
}

// parse runs the format's parser exactly once and drops the source.
func (m *circuitMemo) parse(f func([]byte) (*netlist.Netlist, error)) (*netlist.Netlist, error) {
	m.once.Do(func() {
		m.n, m.err = f(m.src)
		m.src = nil
	})
	return m.n, m.err
}

// CircuitNamed references a circuit by name: one of the built-in
// registry circuits (see BuiltinCircuits) or a name provided by a
// custom source registered with WithCircuitSource.
func CircuitNamed(name string) Circuit {
	return Circuit{format: circuitName, name: name}
}

// CircuitFromNetlist references an already-built netlist, e.g. the
// result of a netlist.Builder.
func CircuitFromNetlist(n *netlist.Netlist) Circuit {
	return Circuit{format: circuitNetlist, netlist: n}
}

// fingerprinted references a netlist whose fingerprint the engine has
// computed, so the compiled-cache lookup does not hash it again. Only
// the engine builds these, for netlists it shares read-only (the
// experiment memo's) or has just hashed.
func fingerprinted(n *netlist.Netlist, fp string) Circuit {
	return Circuit{format: circuitNetlist, netlist: n, fingerprint: fp}
}

// CircuitFromVerilog references a circuit described as structural
// Verilog source in the subset of package glitchsim/verilog.
func CircuitFromVerilog(src []byte) Circuit {
	return Circuit{format: circuitVerilog, memo: newCircuitMemo(src)}
}

// CircuitFromJSON references a circuit described in the netlist JSON
// wire format (netlist.WriteJSON / ReadJSON).
func CircuitFromJSON(src []byte) Circuit {
	return Circuit{format: circuitJSON, memo: newCircuitMemo(src)}
}

// CircuitFromFile reads a circuit description from disk, selecting the
// format by extension: .v/.sv/.verilog parse as structural Verilog,
// everything else as netlist JSON.
func CircuitFromFile(path string) (Circuit, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return Circuit{}, err
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".v", ".sv", ".verilog":
		return CircuitFromVerilog(src), nil
	default:
		return CircuitFromJSON(src), nil
	}
}

// IsZero reports whether the Circuit is the empty reference.
func (c Circuit) IsZero() bool { return c.format == circuitZero }

// String describes the reference (not the resolved circuit).
func (c Circuit) String() string {
	switch c.format {
	case circuitName:
		return fmt.Sprintf("circuit %q", c.name)
	case circuitNetlist:
		if c.netlist != nil {
			return fmt.Sprintf("netlist %q", c.netlist.Name)
		}
		return "netlist <nil>"
	case circuitVerilog:
		return fmt.Sprintf("verilog source (%d bytes)", c.memo.srcLen)
	case circuitJSON:
		return fmt.Sprintf("json netlist (%d bytes)", c.memo.srcLen)
	}
	return "empty circuit"
}

// resolve materializes the reference. Named references go through the
// engine's source chain; source-form references parse once and memoize.
func (c Circuit) resolve(e *Engine) (*netlist.Netlist, error) {
	switch c.format {
	case circuitNetlist:
		if c.netlist == nil {
			return nil, fmt.Errorf("glitchsim: CircuitFromNetlist(nil)")
		}
		return c.netlist, nil
	case circuitName:
		return e.resolveName(c.name)
	case circuitVerilog:
		return c.memo.parse(func(src []byte) (*netlist.Netlist, error) {
			return verilog.Parse(bytes.NewReader(src))
		})
	case circuitJSON:
		return c.memo.parse(func(src []byte) (*netlist.Netlist, error) {
			return netlist.ReadJSON(bytes.NewReader(src))
		})
	}
	return nil, fmt.Errorf("glitchsim: empty circuit reference")
}

// CircuitSource resolves circuit names. Sources registered on an Engine
// with WithCircuitSource are consulted in registration order before the
// built-in registry, so a service can expose uploaded circuits (or a
// test can inject synthetic ones) under the same naming scheme as the
// built-ins. Implementations must be safe for concurrent use.
type CircuitSource interface {
	// Resolve returns the netlist for name. The boolean reports whether
	// this source knows the name at all; (nil, false, nil) hands
	// resolution to the next source in the chain.
	Resolve(name string) (*netlist.Netlist, bool, error)
	// Names lists the identifiers this source can currently resolve.
	Names() []string
}

// WithCircuitSource appends a custom circuit source to the engine's
// resolution chain. Sources are consulted in registration order, ahead
// of the built-in registry.
func WithCircuitSource(s CircuitSource) EngineOption {
	return func(e *Engine) { e.sources = append(e.sources, s) }
}

// Resolve materializes a Circuit reference: named circuits through the
// engine's source chain (custom sources, then the built-in registry),
// source-form circuits by parsing (memoized per reference). The
// resolved netlist feeds any measurement entry point, or the Engine
// directly via the request Circuit fields.
func (e *Engine) Resolve(c Circuit) (*netlist.Netlist, error) {
	return c.resolve(e)
}

// ErrUnknownCircuit marks a named-circuit resolution failure: no
// registered CircuitSource and no built-in knows the name. Callers use
// errors.Is to tell "the name does not exist" (a client error, 404)
// apart from a source that knew the name but failed to produce it (an
// execution failure, possibly transient).
var ErrUnknownCircuit = errors.New("glitchsim: unknown circuit")

// resolveName walks the engine's source chain.
func (e *Engine) resolveName(name string) (*netlist.Netlist, error) {
	for _, s := range e.sources {
		n, ok, err := s.Resolve(name)
		if err != nil {
			return nil, err
		}
		if ok {
			return n, nil
		}
	}
	n, err := registry.Build(name)
	if err != nil {
		return nil, &unknownNameError{e: e, name: name}
	}
	return n, nil
}

// unknownNameError is resolveName's ErrUnknownCircuit. Its message
// lists every name the engine resolves, so it is formatted only when
// read: the service, which tries upload names after a miss, never
// reads it.
type unknownNameError struct {
	e    *Engine
	name string
}

func (u *unknownNameError) Error() string {
	return fmt.Sprintf("%v %q (available: %s)", ErrUnknownCircuit, u.name, strings.Join(u.e.CircuitNames(), ", "))
}

func (u *unknownNameError) Unwrap() error { return ErrUnknownCircuit }

// CircuitNames returns the sorted union of every name the engine can
// resolve: the built-in registry plus all registered circuit sources.
func (e *Engine) CircuitNames() []string {
	names := registry.Names()
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, s := range e.sources {
		for _, n := range s.Names() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// BuiltinCircuits returns the sorted names of the built-in benchmark
// circuits every Engine resolves (the shared catalogue behind the CLI
// -circuit flags and the service's circuit parameter).
func BuiltinCircuits() []string { return registry.Names() }

// requestNetlist resolves the circuit a request names: MeasureRequest's
// deprecated explicit *netlist.Netlist wins when set, otherwise the
// Circuit reference is resolved through the engine. fp is the
// netlist's fingerprint when the reference carries it, else "".
func (e *Engine) requestNetlist(nl *netlist.Netlist, c Circuit) (n *netlist.Netlist, fp string, err error) {
	if nl != nil {
		return nl, "", nil
	}
	if c.IsZero() {
		return nil, "", fmt.Errorf("glitchsim: request names no circuit")
	}
	n, err = c.resolve(e)
	return n, c.fingerprint, err
}

// MeasureCircuit measures a circuit reference under the configuration:
// shorthand for Measure with a MeasureRequest carrying only a Circuit.
func (e *Engine) MeasureCircuit(ctx context.Context, c Circuit, cfg Config) (Activity, error) {
	return e.Measure(ctx, MeasureRequest{Circuit: c, Config: cfg})
}
