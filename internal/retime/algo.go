package retime

// deltas computes the Leiserson–Saxe Δ values on the retimed graph: for
// every vertex, the longest zero-register path delay ending at (and
// including) that vertex. The host is treated as non-propagating — the
// environment latches outputs at the cycle boundary, so a primary-output
// arrival never extends a primary-input path — which breaks the spurious
// zero-register cycle a combinational PI→PO path would otherwise form
// through the environment. Δ(host) still accumulates the worst output
// arrival time so output settling constrains the period.
//
// It returns ok=false when the zero-weight subgraph (host excluded) is
// cyclic, i.e. the retiming would create a combinational loop.
func (g *Graph) deltas(r []int) (delta []int, ok bool) {
	indeg := make([]int, g.V)
	for _, e := range g.Edges {
		if e.To != g.Host && g.wr(e, r) == 0 {
			indeg[e.To]++
		}
	}
	delta = make([]int, g.V)
	queue := make([]int, 0, g.V)
	for v := 0; v < g.V; v++ {
		delta[v] = g.d[v]
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, ei := range g.out[u] {
			e := g.Edges[ei]
			if g.wr(e, r) != 0 {
				continue
			}
			if delta[u]+g.d[e.To] > delta[e.To] {
				delta[e.To] = delta[u] + g.d[e.To]
			}
			if e.To == g.Host {
				continue // absorb: do not gate or re-enqueue the host
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	return delta, seen == g.V
}

func (g *Graph) wr(e Edge, r []int) int {
	if r == nil {
		return e.W
	}
	return e.W + r[e.To] - r[e.From]
}

// ClockPeriod returns the minimum clock period of the graph under a
// retiming (nil = identity): the longest zero-register path delay,
// including output settling. It panics if the retimed graph has a
// combinational cycle, which cannot happen for retimings produced by
// this package.
func (g *Graph) ClockPeriod(r []int) int {
	delta, ok := g.deltas(r)
	if !ok {
		panic("retime: combinational cycle in retimed graph")
	}
	return maxInt(delta)
}

// Feasible runs the FEAS algorithm: it returns a legal retiming
// achieving clock period ≤ c, or ok=false if none exists. The returned
// retiming is normalized so r[Host] = 0: I/O latency is preserved, and
// pipelining is only introduced through FromNetlist's latency parameter.
func (g *Graph) Feasible(c int) (r []int, ok bool) {
	if !g.cellsFit(c) {
		return nil, false
	}
	r = make([]int, g.V)
	for iter := 0; iter < g.V-1; iter++ {
		delta, acyclic := g.deltas(r)
		if !acyclic {
			return nil, false
		}
		changed := false
		for v := 0; v < g.V; v++ {
			if delta[v] > c {
				r[v]++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if delta, acyclic := g.deltas(r); !acyclic || maxInt(delta) > c {
		return nil, false
	}
	// Legality: every retimed edge weight must be non-negative. Weights
	// are invariant under the uniform shift below, so checking before
	// normalization suffices.
	for _, e := range g.Edges {
		if g.wr(e, r) < 0 {
			return nil, false
		}
	}
	h := r[g.Host]
	for v := range r {
		r[v] -= h
	}
	return r, true
}

// cellsFit reports whether every vertex's own delay fits in period c:
// no retiming or pipelining can speed up a single cell.
func (g *Graph) cellsFit(c int) bool {
	for _, d := range g.d {
		if d > c {
			return false
		}
	}
	return true
}

// MinPeriod binary-searches the smallest feasible clock period and
// returns it with a retiming that achieves it.
func (g *Graph) MinPeriod() (c int, r []int) {
	lo := 0
	for _, d := range g.d {
		if d > lo {
			lo = d
		}
	}
	hi := g.ClockPeriod(nil) // identity retiming is always legal
	if hi < lo {
		hi = lo
	}
	best, bestR := hi, []int(nil)
	for lo <= hi {
		mid := (lo + hi) / 2
		if rr, ok := g.Feasible(mid); ok {
			best, bestR = mid, rr
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if bestR == nil {
		bestR = make([]int, g.V)
	}
	return best, bestR
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
