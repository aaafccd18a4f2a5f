// Package retime implements Leiserson–Saxe retiming on gate-level
// netlists: extraction of the retiming graph (flipflop chains collapse to
// edge weights), minimum clock period search with the FEAS algorithm,
// explicit pipelining (added input latency), and reconstruction of a
// retimed netlist with register sharing across fanout.
//
// This is the paper's glitch-reduction mechanism: "flipflops can be
// introduced in the circuit by using retiming" [7][8]. Inserted flipflops
// cut unbalanced delay paths, so signals reconverge aligned and glitches
// disappear.
package retime

import (
	"fmt"
	"math"

	"glitchsim/internal/delay"
	"glitchsim/netlist"
)

// Graph is a retiming graph: one vertex per combinational cell plus a
// host vertex modelling the environment; edges carry register counts.
//
// The host follows the Leiserson–Saxe formulation (retimings are
// normalized to r(host) = 0, so I/O latency is preserved and pipelining
// happens only through FromNetlist's explicit latency parameter) with one
// refinement: during path-delay computation the host does not propagate
// delay from its inputs to its outputs, because the environment latches
// primary outputs at the end of the cycle. This keeps combinational
// PI→PO paths from forming spurious zero-register cycles through the
// environment.
type Graph struct {
	n  *netlist.Netlist
	dm delay.Model

	// V is the number of vertices; vertex Host is the last.
	V    int
	Host int
	// d is the per-vertex propagation delay (max over output pins).
	d []int
	// Edges, one per netlist connection (driver pin → sink port).
	Edges []Edge

	// vertexOf maps a combinational CellID to its vertex index.
	vertexOf []int
	// cellOf maps vertex index back to the cell (NoCell for host).
	cellOf []netlist.CellID

	// latency is the explicit pipeline depth added on host→input edges.
	latency int

	out []([]int) // adjacency: edge indices leaving each vertex
}

// Edge is a weighted connection in the retiming graph.
type Edge struct {
	From, To int
	// FromPin is the output pin on the driving vertex; for the host it
	// is the primary-input index.
	FromPin int
	// W is the register count on the connection (existing DFFs plus
	// added pipeline latency for host edges).
	W int

	// Sink identification for netlist reconstruction: either a cell
	// input port (ToCell ≥ 0) or a primary output index (ToPO ≥ 0).
	ToCell netlist.CellID
	ToPort int
	ToPO   int
}

// root identifies where a net's value originates once DFF chains are
// collapsed: an output pin of a combinational vertex (or the host) plus
// the number of registers in between.
type root struct {
	vertex, pin, w int
}

// FromNetlist extracts the retiming graph of a netlist under a delay
// model, adding `latency` extra registers on every host→input edge
// (explicit pipelining; 0 preserves I/O timing exactly).
func FromNetlist(n *netlist.Netlist, dm delay.Model, latency int) *Graph {
	if latency < 0 {
		panic("retime: negative latency")
	}
	g := &Graph{n: n, dm: dm, latency: latency}

	g.vertexOf = make([]int, n.NumCells())
	for i := range g.vertexOf {
		g.vertexOf[i] = -1
	}
	for i := range n.Cells {
		if n.Cells[i].Type != netlist.DFF {
			g.vertexOf[i] = len(g.cellOf)
			g.cellOf = append(g.cellOf, netlist.CellID(i))
		}
	}
	g.Host = len(g.cellOf)
	g.V = g.Host + 1
	g.cellOf = append(g.cellOf, netlist.NoCell)

	g.d = make([]int, g.V)
	for v, cid := range g.cellOf {
		if cid == netlist.NoCell {
			continue
		}
		c := n.Cell(cid)
		if c.Type == netlist.Const0 || c.Type == netlist.Const1 {
			continue // constants settle once at start-up, delay 0
		}
		worst := 0
		for pin := range c.Out {
			if dd := dm.Delay(c, pin); dd > worst {
				worst = dd
			}
		}
		g.d[v] = worst
	}

	// Memoized root tracing through DFF chains.
	roots := make([]root, n.NumNets())
	for i := range roots {
		roots[i].vertex = -2 // unresolved
	}
	piIndex := make(map[netlist.NetID]int, len(n.PIs))
	for i, id := range n.PIs {
		piIndex[id] = i
	}
	var trace func(id netlist.NetID) root
	trace = func(id netlist.NetID) root {
		if roots[id].vertex != -2 {
			return roots[id]
		}
		net := n.Net(id)
		var r root
		switch {
		case net.IsPrimaryInput():
			r = root{vertex: g.Host, pin: piIndex[id], w: latency}
		case n.Cell(net.Driver).Type == netlist.DFF:
			r = trace(n.Cell(net.Driver).In[0])
			r.w++
		default:
			r = root{vertex: g.vertexOf[net.Driver], pin: net.DriverPin}
		}
		roots[id] = r
		return r
	}

	for i := range n.Cells {
		c := &n.Cells[i]
		if c.Type == netlist.DFF {
			continue
		}
		v := g.vertexOf[i]
		for port, in := range c.In {
			r := trace(in)
			g.Edges = append(g.Edges, Edge{
				From: r.vertex, FromPin: r.pin, To: v, W: r.w,
				ToCell: netlist.CellID(i), ToPort: port, ToPO: -1,
			})
		}
	}
	for j, po := range n.POs {
		r := trace(po)
		g.Edges = append(g.Edges, Edge{
			From: r.vertex, FromPin: r.pin, To: g.Host, W: r.w,
			ToCell: netlist.NoCell, ToPort: -1, ToPO: j,
		})
	}

	g.out = make([][]int, g.V)
	for i, e := range g.Edges {
		g.out[e.From] = append(g.out[e.From], i)
	}
	return g
}

// Latency returns the explicit pipeline depth the graph was built with.
func (g *Graph) Latency() int { return g.latency }

// setLatency re-weights the host's outgoing edges for an explicit
// pipeline depth of k, leaving the graph equal to FromNetlist(n, dm, k).
func (g *Graph) setLatency(k int) {
	for _, ei := range g.out[g.Host] {
		g.Edges[ei].W += k - g.latency
	}
	g.latency = k
}

// latencyBound returns a lower bound on the explicit pipeline depth at
// which period c > 0 can be feasible. A host→host path p with total
// vertex delay L_p and w_p registers at depth 0 carries w_p+k registers
// at depth k under every retiming, so it splits into at most w_p+k+1
// register-free segments, each of delay at most c: w_p+k+1 ≥ ⌈L_p/c⌉.
// Hence k ≥ ⌈M/c⌉−1 with M = max_p (L_p − c·w_p), found by one
// longest-path pass in topological order. That pass needs the graph to
// be acyclic apart from the host; with register feedback the bound is 0.
func (g *Graph) latencyBound(c int) int {
	if c <= 0 {
		return 0
	}
	indeg := make([]int, g.V)
	for _, e := range g.Edges {
		if e.From != g.Host && e.To != g.Host {
			indeg[e.To]++
		}
	}
	order := make([]int, 0, g.V)
	for v := 0; v < g.Host; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, ei := range g.out[order[i]] {
			if to := g.Edges[ei].To; to != g.Host {
				if indeg[to]--; indeg[to] == 0 {
					order = append(order, to)
				}
			}
		}
	}
	if len(order) < g.Host {
		return 0 // register feedback
	}

	// gain[v] is the largest L − c·w over host→v paths, v's delay
	// included; none marks vertices the host does not reach.
	const none = math.MinInt
	gain := make([]int, g.V)
	for v := range gain {
		gain[v] = none
	}
	m := none
	relax := func(from, base int) {
		for _, ei := range g.out[from] {
			e := &g.Edges[ei]
			val := base - c*e.W
			if e.To == g.Host {
				m = max(m, val)
			} else {
				gain[e.To] = max(gain[e.To], val+g.d[e.To])
			}
		}
	}
	relax(g.Host, 0)
	for _, v := range order {
		if gain[v] != none {
			relax(v, gain[v])
		}
	}
	if m <= 0 {
		return 0
	}
	return (m+c-1)/c - 1
}

// Registers returns the total register count of the graph under a
// retiming (nil means the identity), accounting for fanout sharing: a
// driver pin whose edges need depths w1..wk contributes max(wi) registers
// (a shared chain), matching what Apply materializes.
func (g *Graph) Registers(r []int) int {
	type key struct{ v, pin int }
	maxDepth := map[key]int{}
	for _, e := range g.Edges {
		w := e.W
		if r != nil {
			w += r[e.To] - r[e.From]
		}
		if w < 0 {
			panic(fmt.Sprintf("retime: negative edge weight %d after retiming", w))
		}
		k := key{e.From, e.FromPin}
		if w > maxDepth[k] {
			maxDepth[k] = w
		}
	}
	total := 0
	for _, d := range maxDepth {
		total += d
	}
	return total
}
