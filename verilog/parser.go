package verilog

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"glitchsim/netlist"
)

// Parse reads the structural Verilog subset emitted by Write and
// reconstructs a netlist. It parses the first non-helper module in the
// stream; helper module definitions (glitchsim_*) are recognized by name
// and skipped. Supported statements:
//
//	input/output/wire declarations (scalar)
//	gate primitives: buf, not, and, nand, or, nor, xor, xnor
//	helper instances: glitchsim_const0/const1/mux2/maj3/ha/fa/dff
//	assign <net> = 1'b0 | 1'b1 | <net>;
//
// When the source carries the writer's `//!` metadata block, the
// original module/net/cell names, net numbering and bus membership are
// restored exactly, so the result has the same netlist.Fingerprint as
// the netlist that was written. Sources without metadata parse
// structurally: nets are numbered inputs-first then cell outputs in
// statement order.
//
// All parse errors carry the 1-based source line they were detected on.
func Parse(r io.Reader) (*netlist.Netlist, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	meta, err := parseMeta(string(src))
	if err != nil {
		return nil, err
	}
	toks, err := lex(string(src))
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, meta: meta}
	return p.parse()
}

// --- metadata ---

// fileMeta is the decoded `//!` block: everything Parse needs to
// reconstruct a written netlist exactly. present is false when the
// source carries no metadata at all.
type fileMeta struct {
	present   bool
	module    string            // original module name; meaningful when moduleSet
	moduleSet bool              // a module directive was seen ("" is a valid name)
	order     []string          // net Verilog identifiers in net-ID order
	nets      map[string]string // verilog ident -> original net name (when differing)
	cells     map[string]string // instance ident -> original cell name (when differing)
	buses     []busMeta
}

type busMeta struct {
	name    string
	members []string
}

func parseMeta(src string) (*fileMeta, error) {
	m := &fileMeta{nets: map[string]string{}, cells: map[string]string{}}
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if !strings.HasPrefix(line, "//!") {
			continue
		}
		lineNo := i + 1
		fields, err := metaFields(strings.TrimSpace(line[3:]))
		if err != nil {
			return nil, fmt.Errorf("verilog: line %d: bad metadata: %v", lineNo, err)
		}
		if len(fields) == 0 {
			return nil, fmt.Errorf("verilog: line %d: empty metadata directive", lineNo)
		}
		m.present = true
		switch dir := fields[0]; dir {
		case "glitchsim":
			// Version marker; current sources say "glitchsim 1".
		case "module":
			if len(fields) != 2 {
				return nil, fmt.Errorf("verilog: line %d: module directive wants one name", lineNo)
			}
			m.module = fields[1]
			m.moduleSet = true
		case "order":
			m.order = append(m.order, fields[1:]...)
		case "net":
			if len(fields) != 3 {
				return nil, fmt.Errorf("verilog: line %d: net directive wants ident and name", lineNo)
			}
			m.nets[fields[1]] = fields[2]
		case "cell":
			if len(fields) != 3 {
				return nil, fmt.Errorf("verilog: line %d: cell directive wants ident and name", lineNo)
			}
			m.cells[fields[1]] = fields[2]
		case "bus":
			if len(fields) < 2 {
				return nil, fmt.Errorf("verilog: line %d: bus directive wants a name", lineNo)
			}
			m.buses = append(m.buses, busMeta{name: fields[1], members: fields[2:]})
		default:
			return nil, fmt.Errorf("verilog: line %d: unknown metadata directive %q", lineNo, dir)
		}
	}
	return m, nil
}

// metaFields splits a metadata payload into fields: whitespace-separated
// identifiers plus Go-quoted strings (which may contain any bytes).
func metaFields(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			return out, nil
		}
		if s[0] == '"' {
			q, err := strconv.QuotedPrefix(s)
			if err != nil {
				return nil, fmt.Errorf("bad quoted string")
			}
			val, err := strconv.Unquote(q)
			if err != nil {
				return nil, err
			}
			out = append(out, val)
			s = s[len(q):]
			continue
		}
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		out = append(out, s[:end])
		s = s[end:]
	}
}

// --- lexer ---

type token struct {
	text string
	line int
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			i += 2
		case isIdentRune(c) || c == '\'':
			j := i
			for j < len(src) && (isIdentRune(src[j]) || src[j] == '\'') {
				j++
			}
			toks = append(toks, token{text: src[i:j], line: line})
			i = j
		case strings.ContainsRune("(),;=@<>?:&|^~", rune(c)):
			// Two-char operator <= used in helper bodies.
			if c == '<' && i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{text: "<=", line: line})
				i += 2
				continue
			}
			toks = append(toks, token{text: string(c), line: line})
			i++
		default:
			return nil, fmt.Errorf("verilog: line %d: unexpected character %q", line, c)
		}
	}
	return toks, nil
}

func isIdentRune(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
	meta *fileMeta
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos].text
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

// line returns the source line of the token about to be consumed (or of
// the last token at end of input).
func (p *parser) line() int {
	if p.pos < len(p.toks) {
		return p.toks[p.pos].line
	}
	if len(p.toks) > 0 {
		return p.toks[len(p.toks)-1].line
	}
	return 1
}

func (p *parser) expect(want string) error {
	ln := p.line()
	if got := p.next(); got != want {
		return fmt.Errorf("verilog: line %d: expected %q, got %q", ln, want, got)
	}
	return nil
}

var helperSet = func() map[string]netlist.CellType {
	m := map[string]netlist.CellType{}
	for t, name := range helperModules {
		m[name] = t
	}
	return m
}()

var primitiveSet = func() map[string]netlist.CellType {
	m := map[string]netlist.CellType{}
	for t, name := range primitives {
		m[name] = t
	}
	return m
}()

// decl is one declared port or wire name.
type decl struct {
	name string
	line int
}

// statement is one ordered module body statement: a cell instantiation,
// a constant assign, or an alias assign.
type statement struct {
	kind stmtKind
	typ  netlist.CellType // stmtInst
	name string           // stmtInst: instance name
	args []string         // stmtInst: connections, outputs first
	dst  string           // stmtConst / stmtAlias
	src  string           // stmtAlias
	bit  int              // stmtConst
	line int
}

type stmtKind int

const (
	stmtInst stmtKind = iota
	stmtConst
	stmtAlias
)

func (p *parser) parse() (*netlist.Netlist, error) {
	for p.peek() != "" {
		if p.peek() != "module" {
			return nil, fmt.Errorf("verilog: line %d: expected module, got %q", p.line(), p.peek())
		}
		// Look ahead at the module name.
		if p.pos+1 >= len(p.toks) {
			return nil, fmt.Errorf("verilog: line %d: module keyword at end of input", p.line())
		}
		name := p.toks[p.pos+1].text
		if _, isHelper := helperSet[name]; isHelper {
			p.skipModule()
			continue
		}
		return p.parseModule()
	}
	return nil, fmt.Errorf("verilog: line 1: no user module found")
}

func (p *parser) skipModule() {
	for p.peek() != "" && p.next() != "endmodule" {
	}
}

func (p *parser) parseModule() (*netlist.Netlist, error) {
	modLine := p.line()
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	modName := p.next()
	// Port list (names only; directions come from declarations).
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for p.peek() != ")" && p.peek() != "" {
		p.next() // port name or comma
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}

	var inputs, outputs, wires []decl
	var stmts []statement

	for {
		ln := p.line()
		switch t := p.next(); t {
		case "endmodule":
			return buildNetlist(modName, p.meta, inputs, outputs, wires, stmts, modLine, ln)
		case "":
			return nil, fmt.Errorf("verilog: line %d: unexpected end of input in module %s", ln, modName)
		case "input", "output", "wire":
			for {
				nameLn := p.line()
				name := p.next()
				d := decl{name: name, line: nameLn}
				switch t {
				case "input":
					inputs = append(inputs, d)
				case "output":
					outputs = append(outputs, d)
				default:
					wires = append(wires, d)
				}
				sepLn := p.line()
				if sep := p.next(); sep == ";" {
					break
				} else if sep != "," {
					return nil, fmt.Errorf("verilog: line %d: bad declaration separator %q", sepLn, sep)
				}
			}
		case "assign":
			dst := p.next()
			if err := p.expect("="); err != nil {
				return nil, err
			}
			rhs := p.next()
			switch rhs {
			case "1'b0":
				stmts = append(stmts, statement{kind: stmtConst, dst: dst, bit: 0, line: ln})
			case "1'b1":
				stmts = append(stmts, statement{kind: stmtConst, dst: dst, bit: 1, line: ln})
			default:
				stmts = append(stmts, statement{kind: stmtAlias, dst: dst, src: rhs, line: ln})
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		default:
			typ, okP := primitiveSet[t]
			htyp, okH := helperSet[t]
			if !okP && !okH {
				return nil, fmt.Errorf("verilog: line %d: unsupported statement %q", ln, t)
			}
			if okH {
				typ = htyp
			}
			instName := p.next()
			if err := p.expect("("); err != nil {
				return nil, err
			}
			var args []string
			for {
				args = append(args, p.next())
				sepLn := p.line()
				if sep := p.next(); sep == ")" {
					break
				} else if sep != "," {
					return nil, fmt.Errorf("verilog: line %d: bad argument separator %q", sepLn, sep)
				}
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			stmts = append(stmts, statement{kind: stmtInst, typ: typ, name: instName, args: args, line: ln})
		}
	}
}

// splitInst validates an instantiation's connection list and splits it
// into output and input nets (stripping the trailing clk of DFFs).
func splitInst(st *statement) (outs, ins []string, err error) {
	nOuts := st.typ.Outputs()
	if len(st.args) < nOuts {
		return nil, nil, fmt.Errorf("verilog: line %d: instance %s has too few connections", st.line, st.name)
	}
	outs, ins = st.args[:nOuts], st.args[nOuts:]
	if st.typ == netlist.DFF {
		if len(ins) == 0 || ins[len(ins)-1] != "clk" {
			return nil, nil, fmt.Errorf("verilog: line %d: dff %s must end with clk", st.line, st.name)
		}
		ins = ins[:len(ins)-1]
	}
	min, max := st.typ.InputRange()
	if len(ins) < min || (max >= 0 && len(ins) > max) {
		return nil, nil, fmt.Errorf("verilog: line %d: instance %s has %d inputs, want %d..%d",
			st.line, st.name, len(ins), min, max)
	}
	return outs, ins, nil
}

// buildNetlist assembles the parsed pieces, exactly (metadata present)
// or structurally. Builder methods panic on structural misuse the
// explicit checks below did not anticipate; the recover converts any
// such escape into a regular parse error so Parse never panics on
// malformed input. Every name handed to the Builder is cloned: the
// parsed identifiers are substrings of whole copies of the source, and
// the netlist must not keep those alive.
func buildNetlist(modName string, meta *fileMeta, inputs, outputs, wires []decl,
	stmts []statement, modLine, endLine int) (n *netlist.Netlist, err error) {
	defer func() {
		if r := recover(); r != nil {
			n, err = nil, fmt.Errorf("verilog: line %d: invalid netlist: %v", modLine, r)
		}
	}()
	if meta.present {
		return buildExact(modName, meta, inputs, outputs, wires, stmts, endLine)
	}
	return buildLoose(modName, inputs, outputs, stmts, endLine)
}

// buildExact reconstructs a written netlist from the metadata block:
// nets are created in the recorded order under their original names, so
// the result is structurally identical (same Fingerprint) to the
// netlist Write was given.
func buildExact(modName string, meta *fileMeta, inputs, outputs, wires []decl,
	stmts []statement, endLine int) (*netlist.Netlist, error) {

	name := modName
	if meta.moduleSet {
		name = meta.module // "" is a valid original name
	}
	b := netlist.NewBuilder(strings.Clone(name))

	inputSet := map[string]bool{}
	for _, d := range inputs {
		if d.name == "clk" {
			continue // implicit clock
		}
		if inputSet[d.name] {
			return nil, fmt.Errorf("verilog: line %d: input %s declared twice", d.line, d.name)
		}
		inputSet[d.name] = true
	}
	declared := map[string]bool{}
	for _, d := range wires {
		declared[d.name] = true
	}

	// Create every net in metadata order; original names of inputs and
	// wires alike come from the net directives (default: the ident).
	nets := map[string]netlist.NetID{}
	origSeen := map[string]bool{}
	var piOrder []string
	for _, v := range meta.order {
		if _, dup := nets[v]; dup {
			return nil, fmt.Errorf("verilog: line %d: net %s appears twice in metadata order", endLine, v)
		}
		if !inputSet[v] && !declared[v] {
			return nil, fmt.Errorf("verilog: line %d: metadata net %s is not declared", endLine, v)
		}
		orig := v
		if o, ok := meta.nets[v]; ok {
			orig = o
		}
		if origSeen[orig] {
			return nil, fmt.Errorf("verilog: line %d: original net name %q appears twice in metadata", endLine, orig)
		}
		origSeen[orig] = true
		if inputSet[v] {
			nets[v] = b.Input(strings.Clone(orig))
			piOrder = append(piOrder, v)
		} else {
			nets[v] = b.Net(strings.Clone(orig))
		}
	}
	if len(piOrder) != len(inputSet) {
		return nil, fmt.Errorf("verilog: line %d: %d inputs declared but %d appear in metadata order",
			endLine, len(inputSet), len(piOrder))
	}

	// Cells in statement order; assigns to non-net ports are aliases.
	driven := map[string]bool{}
	aliases := map[string]string{}
	for i := range stmts {
		st := &stmts[i]
		switch st.kind {
		case stmtAlias:
			if _, isNet := nets[st.dst]; isNet {
				return nil, fmt.Errorf("verilog: line %d: assign to net %s not supported with metadata", st.line, st.dst)
			}
			aliases[st.dst] = st.src
		case stmtConst:
			id, ok := nets[st.dst]
			if !ok {
				return nil, fmt.Errorf("verilog: line %d: constant assign to undeclared net %s", st.line, st.dst)
			}
			if driven[st.dst] || inputSet[st.dst] {
				return nil, fmt.Errorf("verilog: line %d: net %s driven twice", st.line, st.dst)
			}
			driven[st.dst] = true
			t := netlist.Const0
			if st.bit == 1 {
				t = netlist.Const1
			}
			b.AddCellDriving(t, "", nil, []netlist.NetID{id})
		case stmtInst:
			outs, ins, err := splitInst(st)
			if err != nil {
				return nil, err
			}
			outIDs := make([]netlist.NetID, len(outs))
			for pin, o := range outs {
				id, ok := nets[o]
				if !ok {
					return nil, fmt.Errorf("verilog: line %d: output %s of instance %s is not a declared net", st.line, o, st.name)
				}
				if driven[o] || inputSet[o] {
					return nil, fmt.Errorf("verilog: line %d: net %s driven twice", st.line, o)
				}
				driven[o] = true
				outIDs[pin] = id
			}
			inIDs := make([]netlist.NetID, len(ins))
			for port, a := range ins {
				id, ok := nets[a]
				if !ok {
					return nil, fmt.Errorf("verilog: line %d: instance %s reads undeclared net %s", st.line, st.name, a)
				}
				inIDs[port] = id
			}
			cellName := st.name
			if o, ok := meta.cells[st.name]; ok {
				cellName = o
			}
			b.AddCellDriving(st.typ, strings.Clone(cellName), inIDs, outIDs)
		}
	}

	// Primary outputs in declaration order, resolved through aliases.
	resolve := resolver(nets, aliases)
	for _, d := range outputs {
		id, ok := resolve(d.name)
		if !ok {
			return nil, fmt.Errorf("verilog: line %d: output %s is undriven", d.line, d.name)
		}
		b.Output("", id)
	}

	// Buses from metadata.
	for _, bus := range meta.buses {
		ids := make([]netlist.NetID, len(bus.members))
		for i, v := range bus.members {
			id, ok := nets[v]
			if !ok {
				return nil, fmt.Errorf("verilog: line %d: bus %q references unknown net %s", endLine, bus.name, v)
			}
			ids[i] = id
		}
		b.NameBus(strings.Clone(bus.name), ids)
	}

	built, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("verilog: line %d: %w", endLine, err)
	}
	return built, nil
}

// buildLoose assembles a netlist from sources without metadata: nets are
// numbered inputs-first, then cell outputs in statement order (forward
// references are fine — every output net is declared before any cell is
// created).
func buildLoose(modName string, inputs, outputs []decl, stmts []statement, endLine int) (*netlist.Netlist, error) {
	b := netlist.NewBuilder(strings.Clone(modName))
	nets := map[string]netlist.NetID{}

	for _, d := range inputs {
		if d.name == "clk" {
			continue // implicit clock
		}
		if _, dup := nets[d.name]; dup {
			return nil, fmt.Errorf("verilog: line %d: input %s declared twice", d.line, d.name)
		}
		nets[d.name] = b.Input(strings.Clone(d.name))
	}

	// Pass 1: declare every driven net, validating single drivers and
	// connection counts — an alias assign drives its destination too, so
	// it conflicts with gates, constants, inputs and other aliases.
	// Pass 2: create the cells.
	aliases := map[string]string{}
	for i := range stmts {
		st := &stmts[i]
		var outs []string
		switch st.kind {
		case stmtAlias:
			_, drivenByNet := nets[st.dst]
			_, drivenByAlias := aliases[st.dst]
			if drivenByNet || drivenByAlias {
				return nil, fmt.Errorf("verilog: line %d: net %s driven twice", st.line, st.dst)
			}
			aliases[st.dst] = st.src
			continue
		case stmtConst:
			outs = []string{st.dst}
		case stmtInst:
			var err error
			if outs, _, err = splitInst(st); err != nil {
				return nil, err
			}
		}
		for _, o := range outs {
			_, drivenByNet := nets[o]
			_, drivenByAlias := aliases[o]
			if drivenByNet || drivenByAlias {
				return nil, fmt.Errorf("verilog: line %d: net %s driven twice", st.line, o)
			}
			nets[o] = b.Net(strings.Clone(o))
		}
	}
	// Instance inputs resolve through the alias map too (assign w = a;
	// buf g(z, w);), not just primary outputs.
	resolve := resolver(nets, aliases)
	for i := range stmts {
		st := &stmts[i]
		switch st.kind {
		case stmtAlias:
		case stmtConst:
			t := netlist.Const0
			if st.bit == 1 {
				t = netlist.Const1
			}
			b.AddCellDriving(t, "", nil, []netlist.NetID{nets[st.dst]})
		case stmtInst:
			outs, ins, err := splitInst(st)
			if err != nil {
				return nil, err
			}
			outIDs := make([]netlist.NetID, len(outs))
			for pin, o := range outs {
				outIDs[pin] = nets[o]
			}
			inIDs := make([]netlist.NetID, len(ins))
			for port, a := range ins {
				id, ok := resolve(a)
				if !ok {
					return nil, fmt.Errorf("verilog: line %d: instance %s reads net %s which has no driver", st.line, st.name, a)
				}
				inIDs[port] = id
			}
			b.AddCellDriving(st.typ, strings.Clone(st.name), inIDs, outIDs)
		}
	}

	// Output-port nets that are pure aliases of internal nets (the
	// writer's po_* pattern) are registered as primary outputs of their
	// source nets, under the alias name with the po_ prefix stripped.
	for _, d := range outputs {
		id, ok := resolve(d.name)
		if !ok {
			return nil, fmt.Errorf("verilog: line %d: output %s is undriven", d.line, d.name)
		}
		b.Output(strings.Clone(strings.TrimPrefix(d.name, "po_")), id)
	}
	built, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("verilog: line %d: %w", endLine, err)
	}
	return built, nil
}

// resolver returns a lookup through the alias map (assign dst = src)
// into real nets, with a visited set so alias cycles terminate.
func resolver(nets map[string]netlist.NetID, aliases map[string]string) func(string) (netlist.NetID, bool) {
	return func(name string) (netlist.NetID, bool) {
		seen := map[string]bool{}
		for {
			if id, ok := nets[name]; ok {
				return id, true
			}
			if seen[name] {
				return netlist.NoNet, false
			}
			seen[name] = true
			src, ok := aliases[name]
			if !ok {
				return netlist.NoNet, false
			}
			name = src
		}
	}
}

// sortedHelperNames returns the helper module names (for the parser's
// recognizer), deterministic for tests.
func sortedHelperNames() []string {
	out := make([]string, 0, len(helperModules))
	for _, v := range helperModules {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
