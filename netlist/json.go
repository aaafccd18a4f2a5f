package netlist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// jsonNetlist is the serialized form: cells reference nets by name, so
// the format is stable under renumbering and human-diffable.
type jsonNetlist struct {
	Name string   `json:"name"`
	PIs  []string `json:"inputs"`
	POs  []string `json:"outputs"`
	// Nets lists every net name in net-ID order. It is optional on
	// input: when present, ReadJSON recreates nets in exactly this
	// order, so the decoded netlist reproduces the original net
	// numbering and with it the original Fingerprint. When absent,
	// nets are numbered inputs-first then cell outputs in cell order.
	Nets  []string            `json:"nets,omitempty"`
	Cells []jsonCell          `json:"cells"`
	Buses map[string][]string `json:"buses,omitempty"`
}

type jsonCell struct {
	Type string   `json:"type"`
	Name string   `json:"name,omitempty"`
	In   []string `json:"in"`
	Out  []string `json:"out"`
}

var typeByName = func() map[string]CellType {
	m := make(map[string]CellType, int(numCellTypes))
	for t := CellType(0); t < numCellTypes; t++ {
		m[t.String()] = t
	}
	return m
}()

// WriteJSON serializes the netlist as indented JSON.
func (n *Netlist) WriteJSON(w io.Writer) error {
	jn := jsonNetlist{Name: n.Name, Buses: map[string][]string{}}
	netName := func(id NetID) string { return n.Nets[id].Name }
	for _, pi := range n.PIs {
		jn.PIs = append(jn.PIs, netName(pi))
	}
	for _, po := range n.POs {
		jn.POs = append(jn.POs, netName(po))
	}
	for i := range n.Nets {
		jn.Nets = append(jn.Nets, n.Nets[i].Name)
	}
	for i := range n.Cells {
		c := &n.Cells[i]
		jc := jsonCell{Type: c.Type.String(), Name: c.Name}
		for _, in := range c.In {
			jc.In = append(jc.In, netName(in))
		}
		for _, o := range c.Out {
			jc.Out = append(jc.Out, netName(o))
		}
		jn.Cells = append(jn.Cells, jc)
	}
	for bus, ids := range n.Buses {
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = netName(id)
		}
		jn.Buses[bus] = names
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jn)
}

// ReadJSON deserializes a netlist written by WriteJSON and validates it.
// Every net it declares needs a non-empty name: the builder would
// invent one for an empty name, which could collide with a declared
// one, and WriteJSON never writes an empty name.
func ReadJSON(r io.Reader) (*Netlist, error) {
	var jn jsonNetlist
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jn); err != nil {
		return nil, fmt.Errorf("netlist: decoding JSON: %w", err)
	}
	b := NewBuilder(jn.Name)
	nets := map[string]NetID{}
	inputSet := make(map[string]bool, len(jn.PIs))
	for _, pi := range jn.PIs {
		if pi == "" {
			return nil, errors.New("netlist: input with an empty name")
		}
		if inputSet[pi] {
			return nil, fmt.Errorf("netlist: duplicate input %q", pi)
		}
		inputSet[pi] = true
	}
	ordered := len(jn.Nets) > 0
	if ordered {
		// Declare every net up front in the serialized ID order, so the
		// decoded netlist reproduces the original numbering (and with it
		// the Fingerprint).
		var piOrder []string
		for _, name := range jn.Nets {
			if name == "" {
				return nil, errors.New("netlist: net with an empty name")
			}
			if _, dup := nets[name]; dup {
				return nil, fmt.Errorf("netlist: duplicate net %q", name)
			}
			if inputSet[name] {
				nets[name] = b.Input(name)
				piOrder = append(piOrder, name)
			} else {
				nets[name] = b.Net(name)
			}
		}
		if len(piOrder) != len(jn.PIs) {
			return nil, fmt.Errorf("netlist: %d inputs declared but %d appear in nets", len(jn.PIs), len(piOrder))
		}
		for i, pi := range jn.PIs {
			if piOrder[i] != pi {
				return nil, fmt.Errorf("netlist: input order mismatch: inputs[%d]=%q but nets order gives %q", i, pi, piOrder[i])
			}
		}
	} else {
		for _, pi := range jn.PIs {
			nets[pi] = b.Input(pi)
		}
	}

	// Phase 1: declare (or, in ordered mode, look up) every cell output
	// net so arbitrary (including feedback) references resolve. Phase 2:
	// create the cells driving those nets.
	driven := make(map[string]bool, len(jn.Cells))
	for ci, jc := range jn.Cells {
		t, ok := typeByName[jc.Type]
		if !ok {
			return nil, fmt.Errorf("netlist: cell %d has unknown type %q", ci, jc.Type)
		}
		if len(jc.Out) != t.Outputs() {
			return nil, fmt.Errorf("netlist: cell %d (%s) has %d outputs, want %d", ci, jc.Type, len(jc.Out), t.Outputs())
		}
		min, max := t.InputRange()
		if len(jc.In) < min || (max >= 0 && len(jc.In) > max) {
			return nil, fmt.Errorf("netlist: cell %d (%s) has %d inputs, want %d..%d", ci, jc.Type, len(jc.In), min, max)
		}
		for _, outName := range jc.Out {
			if ordered {
				if _, ok := nets[outName]; !ok {
					return nil, fmt.Errorf("netlist: cell %d output references net %q missing from nets order", ci, outName)
				}
				if inputSet[outName] || driven[outName] {
					return nil, fmt.Errorf("netlist: net %q driven twice", outName)
				}
			} else {
				if outName == "" {
					return nil, fmt.Errorf("netlist: cell %d output with an empty name", ci)
				}
				if _, dup := nets[outName]; dup {
					return nil, fmt.Errorf("netlist: net %q driven twice", outName)
				}
				nets[outName] = b.Net(outName)
			}
			driven[outName] = true
		}
	}
	for _, jc := range jn.Cells {
		t := typeByName[jc.Type]
		ins := make([]NetID, len(jc.In))
		for port, name := range jc.In {
			id, ok := nets[name]
			if !ok {
				return nil, fmt.Errorf("netlist: cell input references unknown net %q", name)
			}
			ins[port] = id
		}
		outs := make([]NetID, len(jc.Out))
		for pin, name := range jc.Out {
			outs[pin] = nets[name]
		}
		b.AddCellDriving(t, jc.Name, ins, outs)
	}

	for _, po := range jn.POs {
		id, ok := nets[po]
		if !ok {
			return nil, fmt.Errorf("netlist: output references unknown net %q", po)
		}
		b.Output("", id)
	}
	for bus, names := range jn.Buses {
		ids := make([]NetID, len(names))
		for i, name := range names {
			id, ok := nets[name]
			if !ok {
				return nil, fmt.Errorf("netlist: bus %q references unknown net %q", bus, name)
			}
			ids[i] = id
		}
		b.NameBus(bus, ids)
	}
	return b.Build()
}
