package netlist

import (
	"fmt"
	"strconv"
)

// Builder incrementally constructs a Netlist. All helper methods panic on
// structural misuse (wrong pin counts, duplicate names, foreign nets);
// the final Build call performs whole-netlist validation and returns any
// semantic errors (undriven nets, combinational cycles).
type Builder struct {
	n        *Netlist
	autoNets int
	finished bool
}

// NewBuilder returns a Builder for a netlist with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		n: &Netlist{
			Name:      name,
			Buses:     map[string][]NetID{},
			netByName: map[string]NetID{},
		},
	}
}

func (b *Builder) checkOpen() {
	if b.finished {
		panic("netlist: builder used after Build")
	}
}

func (b *Builder) newNet(name string) NetID {
	b.checkOpen()
	if name == "" {
		name = autoName("n", b.autoNets)
		b.autoNets++
	}
	if _, dup := b.n.netByName[name]; dup {
		panic(fmt.Sprintf("netlist: duplicate net name %q", name))
	}
	id := NetID(len(b.n.Nets))
	b.n.Nets = append(b.n.Nets, Net{ID: id, Name: name, Driver: NoCell})
	b.n.netByName[name] = id
	return id
}

// autoName returns prefix followed by i in decimal, allocating only the
// result.
func autoName(prefix string, i int) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(i), 10))
}

func (b *Builder) checkNet(id NetID) {
	if id < 0 || int(id) >= len(b.n.Nets) {
		panic(fmt.Sprintf("netlist: invalid net id %d", id))
	}
}

// Input declares a 1-bit primary input and returns its net.
func (b *Builder) Input(name string) NetID {
	id := b.newNet(name)
	b.n.PIs = append(b.n.PIs, id)
	return id
}

// InputBus declares an n-bit primary input bus (LSB first). Bit nets are
// named name[i].
func (b *Builder) InputBus(name string, n int) []NetID {
	ids := make([]NetID, n)
	for i := range ids {
		ids[i] = b.Input(name + "[" + strconv.Itoa(i) + "]")
	}
	b.n.Buses[name] = append([]NetID(nil), ids...)
	return ids
}

// Output marks an existing net as a primary output under the given name.
// The net keeps its original name; the output name is registered as an
// alias bus of width 1 when it differs.
func (b *Builder) Output(name string, id NetID) {
	b.checkOpen()
	b.checkNet(id)
	b.n.POs = append(b.n.POs, id)
	if name != "" {
		b.n.Buses[name] = append(b.n.Buses[name], id)
	}
}

// OutputBus marks the nets of ids (LSB first) as primary outputs grouped
// under a bus name.
func (b *Builder) OutputBus(name string, ids []NetID) {
	b.checkOpen()
	for _, id := range ids {
		b.checkNet(id)
		b.n.POs = append(b.n.POs, id)
	}
	b.n.Buses[name] = append([]NetID(nil), ids...)
}

// NameBus registers an internal bus name for reporting without marking
// the nets as outputs.
func (b *Builder) NameBus(name string, ids []NetID) {
	b.checkOpen()
	b.n.Buses[name] = append([]NetID(nil), ids...)
}

// AddCell appends a cell of the given type driving freshly created output
// nets, and returns those nets. Pin counts are checked against the type.
func (b *Builder) AddCell(t CellType, name string, ins ...NetID) []NetID {
	b.checkOpen()
	min, max := t.InputRange()
	if len(ins) < min || (max >= 0 && len(ins) > max) {
		panic(fmt.Sprintf("netlist: %s cell %q with %d inputs (want %d..%d)", t, name, len(ins), min, max))
	}
	cid := CellID(len(b.n.Cells))
	if name == "" {
		name = autoName(t.String(), int(cid))
	}
	outs := make([]NetID, t.Outputs())
	for i := range outs {
		outs[i] = b.newNet("")
		b.n.Nets[outs[i]].Driver = cid
		b.n.Nets[outs[i]].DriverPin = i
	}
	cell := Cell{ID: cid, Type: t, Name: name, In: append([]NetID(nil), ins...), Out: outs}
	for port, in := range ins {
		b.checkNet(in)
		b.n.Nets[in].Sinks = append(b.n.Nets[in].Sinks, Pin{Cell: cid, Port: port})
	}
	b.n.Cells = append(b.n.Cells, cell)
	return outs
}

// Convenience single-output gate constructors. Each returns the output
// net of a freshly added cell.

// Const returns a constant net of value bit (0 or 1).
func (b *Builder) Const(bit int) NetID {
	if bit == 0 {
		return b.AddCell(Const0, "")[0]
	}
	return b.AddCell(Const1, "")[0]
}

// Buf adds a buffer.
func (b *Builder) Buf(a NetID) NetID { return b.AddCell(Buf, "", a)[0] }

// Not adds an inverter.
func (b *Builder) Not(a NetID) NetID { return b.AddCell(Not, "", a)[0] }

// And adds an n-input AND gate.
func (b *Builder) And(ins ...NetID) NetID { return b.AddCell(And, "", ins...)[0] }

// Nand adds an n-input NAND gate.
func (b *Builder) Nand(ins ...NetID) NetID { return b.AddCell(Nand, "", ins...)[0] }

// Or adds an n-input OR gate.
func (b *Builder) Or(ins ...NetID) NetID { return b.AddCell(Or, "", ins...)[0] }

// Nor adds an n-input NOR gate.
func (b *Builder) Nor(ins ...NetID) NetID { return b.AddCell(Nor, "", ins...)[0] }

// Xor adds an n-input XOR (parity) gate.
func (b *Builder) Xor(ins ...NetID) NetID { return b.AddCell(Xor, "", ins...)[0] }

// Xnor adds an n-input XNOR gate.
func (b *Builder) Xnor(ins ...NetID) NetID { return b.AddCell(Xnor, "", ins...)[0] }

// Mux adds a 2:1 multiplexer returning a when sel=0, b when sel=1.
func (b *Builder) Mux(a, bb, sel NetID) NetID { return b.AddCell(Mux2, "", a, bb, sel)[0] }

// Maj adds a 3-input majority gate.
func (b *Builder) Maj(x, y, z NetID) NetID { return b.AddCell(Maj3, "", x, y, z)[0] }

// HalfAdder adds a compound half-adder cell and returns (sum, carry).
func (b *Builder) HalfAdder(x, y NetID) (sum, carry NetID) {
	outs := b.AddCell(HA, "", x, y)
	return outs[PinSum], outs[PinCarry]
}

// FullAdder adds a compound full-adder cell and returns (sum, cout).
func (b *Builder) FullAdder(x, y, cin NetID) (sum, cout NetID) {
	outs := b.AddCell(FA, "", x, y, cin)
	return outs[PinSum], outs[PinCarry]
}

// DFF adds a D flipflop and returns its Q net.
func (b *Builder) DFF(d NetID) NetID { return b.AddCell(DFF, "", d)[0] }

// DFFChain adds n flipflops in series and returns the final Q (or d
// itself when n == 0).
func (b *Builder) DFFChain(d NetID, n int) NetID {
	for i := 0; i < n; i++ {
		d = b.DFF(d)
	}
	return d
}

// RegisterBus inserts one DFF on every net of the bus and returns the
// registered bus.
func (b *Builder) RegisterBus(bus []NetID) []NetID {
	out := make([]NetID, len(bus))
	for i, id := range bus {
		out[i] = b.DFF(id)
	}
	return out
}

// NumCells returns the number of cells added so far.
func (b *Builder) NumCells() int { return len(b.n.Cells) }

// Net declares a named net with no driver. It must be driven later via
// AddCellDriving (or be re-declared as nothing: Build fails on undriven
// nets). Intended for deserializers that know all net names up front.
func (b *Builder) Net(name string) NetID { return b.newNet(name) }

// AddCellDriving appends a cell whose outputs are pre-declared undriven
// nets rather than freshly created ones. It panics if any output net
// already has a driver.
func (b *Builder) AddCellDriving(t CellType, name string, ins, outs []NetID) CellID {
	b.checkOpen()
	min, max := t.InputRange()
	if len(ins) < min || (max >= 0 && len(ins) > max) {
		panic(fmt.Sprintf("netlist: %s cell %q with %d inputs (want %d..%d)", t, name, len(ins), min, max))
	}
	if len(outs) != t.Outputs() {
		panic(fmt.Sprintf("netlist: %s cell %q with %d outputs (want %d)", t, name, len(outs), t.Outputs()))
	}
	cid := CellID(len(b.n.Cells))
	if name == "" {
		name = autoName(t.String(), int(cid))
	}
	for pin, o := range outs {
		b.checkNet(o)
		if b.n.Nets[o].Driver != NoCell {
			panic(fmt.Sprintf("netlist: net %q already driven by cell %d", b.n.Nets[o].Name, b.n.Nets[o].Driver))
		}
		b.n.Nets[o].Driver = cid
		b.n.Nets[o].DriverPin = pin
	}
	cell := Cell{ID: cid, Type: t, Name: name, In: append([]NetID(nil), ins...), Out: append([]NetID(nil), outs...)}
	for port, in := range ins {
		b.checkNet(in)
		b.n.Nets[in].Sinks = append(b.n.Nets[in].Sinks, Pin{Cell: cid, Port: port})
	}
	b.n.Cells = append(b.n.Cells, cell)
	return cid
}

// RenameNet changes a net's name. The new name must be unused.
func (b *Builder) RenameNet(id NetID, name string) {
	b.checkOpen()
	b.checkNet(id)
	if name == "" {
		panic("netlist: empty net name")
	}
	old := b.n.Nets[id].Name
	if old == name {
		return
	}
	if _, dup := b.n.netByName[name]; dup {
		panic(fmt.Sprintf("netlist: duplicate net name %q", name))
	}
	delete(b.n.netByName, old)
	b.n.Nets[id].Name = name
	b.n.netByName[name] = id
}

// Rewire changes input port of cell to read net, updating the sink
// records on both the old and new nets. It is the only way to create
// sequential feedback loops (a cell reading a DFF output that was
// created after it).
func (b *Builder) Rewire(cell CellID, port int, net NetID) {
	b.checkOpen()
	b.checkNet(net)
	if cell < 0 || int(cell) >= len(b.n.Cells) {
		panic(fmt.Sprintf("netlist: invalid cell id %d", cell))
	}
	c := &b.n.Cells[cell]
	if port < 0 || port >= len(c.In) {
		panic(fmt.Sprintf("netlist: cell %q has no input port %d", c.Name, port))
	}
	old := c.In[port]
	if old == net {
		return
	}
	pin := Pin{Cell: cell, Port: port}
	if sinks := b.n.Nets[old].Sinks; len(sinks) > 0 && sinks[0] == pin {
		// Ports wired to a placeholder are usually rewired in the order
		// they were added: drop the head without copying the rest.
		b.n.Nets[old].Sinks = sinks[1:]
	} else {
		kept := sinks[:0]
		for _, s := range sinks {
			if s != pin {
				kept = append(kept, s)
			}
		}
		b.n.Nets[old].Sinks = kept
	}
	c.In[port] = net
	b.n.Nets[net].Sinks = append(b.n.Nets[net].Sinks, pin)
}

// Build validates the netlist and returns it. The builder cannot be used
// afterwards.
func (b *Builder) Build() (*Netlist, error) {
	b.checkOpen()
	if err := b.n.Validate(); err != nil {
		return nil, err
	}
	b.finished = true
	return b.n, nil
}

// MustBuild is Build panicking on error, for circuit generators whose
// structure is correct by construction.
func (b *Builder) MustBuild() *Netlist {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}
