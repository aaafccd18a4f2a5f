package netlist

import "sort"

// SequentialLevels returns the length of the longest acyclic
// register-to-register chain in the netlist: the number of DFFs on the
// longest path PI → DFF → … → DFF where consecutive DFFs are connected
// through combinational logic. Feedback edges (a DFF reachable from
// itself, as in an accumulator) do not extend the chain. A purely
// combinational netlist has 0 levels; a circuit whose every DFF is fed
// directly from primary inputs has 1.
//
// The value is the number of clock cycles needed to flush unknown
// initial state through a pipeline, which is what Config defaulting uses
// it for.
func (n *Netlist) SequentialLevels() int { return n.registerGraph().levels }

// SequentialDepth returns SequentialLevels together with whether any
// flipflop sits on a sequential feedback loop (its D input depends on
// its own Q through logic and other flipflops), from one pass over the
// flipflop dependency graph. Without feedback, the state the netlist
// settles in at the end of a clock cycle depends only on the last
// levels+1 input vectors: a flipflop at register level j holds data
// derived from the previous j vectors alone.
func (n *Netlist) SequentialDepth() (levels int, feedback bool) {
	rg := n.registerGraph()
	for _, in := range rg.inLoop {
		if in {
			return rg.levels, true
		}
	}
	return rg.levels, false
}

// registerGraph is the flipflop dependency graph of a netlist, one node
// per DFF, with an edge from p to d when p's Q reaches d's D input
// through combinational cells, analyzed in one depth-first pass.
type registerGraph struct {
	// dffs lists the DFF cells in cell order; the other slices are
	// indexed like it.
	dffs []CellID
	// levels is SequentialLevels.
	levels int
	// inLoop marks the DFFs on sequential feedback loops: a self edge
	// or a strongly connected component of more than one DFF.
	inLoop []bool
}

// registerGraph builds and analyzes the flipflop dependency graph. It
// tolerates out-of-range net and cell references, so Lint can run it
// on netlists Validate would reject.
func (n *Netlist) registerGraph() registerGraph {
	var rg registerGraph
	cellToDFF := make([]int, len(n.Cells))
	for i := range n.Cells {
		cellToDFF[i] = -1
		if n.Cells[i].Type == DFF {
			cellToDFF[i] = len(rg.dffs)
			rg.dffs = append(rg.dffs, CellID(i))
		}
	}
	if len(rg.dffs) == 0 {
		return rg
	}
	preds := n.dffPreds(rg.dffs, cellToDFF)

	// One iterative DFS over the predecessor edges serves both results.
	// Levels: the longest path, ignoring back edges (edges into a node
	// still on the stack) so feedback loops terminate; iteration order
	// is fixed, so the result is deterministic for a given netlist.
	// Loops: Tarjan's strongly connected components on the same walk.
	const (
		white = iota
		gray
		black
	)
	nd := len(rg.dffs)
	state := make([]uint8, nd)
	level := make([]int, nd)
	index := make([]int, nd)
	low := make([]int, nd)
	onStack := make([]bool, nd)
	rg.inLoop = make([]bool, nd)
	var scc []int
	visit := func(v, i int) {
		state[v] = gray
		index[v], low[v] = i, i
		scc = append(scc, v)
		onStack[v] = true
	}
	type frame struct{ node, next int }
	var frames []frame
	visited := 0
	for root := range rg.dffs {
		if state[root] != white {
			continue
		}
		visit(root, visited)
		visited++
		frames = append(frames[:0], frame{root, 0})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.node
			if f.next < len(preds[v]) {
				p := preds[v][f.next]
				f.next++
				switch {
				case state[p] == white:
					visit(p, visited)
					visited++
					frames = append(frames, frame{p, 0})
				case onStack[p]:
					low[v] = min(low[v], index[p])
				}
				continue
			}
			lvl := 1
			selfLoop := false
			for _, p := range preds[v] {
				if state[p] == black && level[p]+1 > lvl {
					lvl = level[p] + 1
				}
				selfLoop = selfLoop || p == v
			}
			level[v] = lvl
			state[v] = black
			rg.levels = max(rg.levels, lvl)
			if low[v] == index[v] {
				// v roots a component: everything above it on the stack.
				k := len(scc) - 1
				for scc[k] != v {
					k--
				}
				loop := selfLoop || k < len(scc)-1
				for _, w := range scc[k:] {
					onStack[w] = false
					rg.inLoop[w] = loop
				}
				scc = scc[:k]
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				low[parent] = min(low[parent], low[v])
			}
		}
	}
	return rg
}

// dffPreds builds, for each DFF, the sorted list of DFFs whose Q reaches
// its D input through combinational logic.
func (n *Netlist) dffPreds(dffs []CellID, cellToDFF []int) [][]int {
	preds := make([][]int, len(dffs))
	netMark := make([]int, len(n.Nets))
	predMark := make([]int, len(dffs))
	var stack []NetID
	for di, cid := range dffs {
		epoch := di + 1
		stack = append(stack[:0], n.Cells[cid].In[0])
		for len(stack) > 0 {
			net := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if net < 0 || int(net) >= len(n.Nets) || netMark[net] == epoch {
				continue
			}
			netMark[net] = epoch
			d := n.Nets[net].Driver
			if d == NoCell || int(d) >= len(n.Cells) {
				continue
			}
			if n.Cells[d].Type == DFF {
				if p := cellToDFF[d]; predMark[p] != epoch {
					predMark[p] = epoch
					preds[di] = append(preds[di], p)
				}
				continue
			}
			stack = append(stack, n.Cells[d].In...)
		}
		sort.Ints(preds[di])
	}
	return preds
}
