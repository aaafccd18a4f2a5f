package sim

import (
	"fmt"
	"math"
	"sync"

	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// Compiled is an immutable, cache-friendly compilation of a netlist for
// the simulation hot path: cell types, input/output net IDs and per-net
// fanout lists live in contiguous CSR-style arrays instead of the
// pointer-rich netlist.Cell/netlist.Net structures, so the event loop
// never chases *Netlist pointers.
//
// A Compiled is read-only after Compile returns and may be shared by any
// number of Simulators concurrently (the batch measurement layer compiles
// each circuit once and hands the result to a pool of per-goroutine
// simulators). The source netlist must not be mutated while a Compiled
// built from it is in use.
type Compiled struct {
	n *netlist.Netlist

	// Per-cell arrays, indexed by CellID.
	cellType []netlist.CellType
	inStart  []int32         // len NumCells+1; offsets into inNets
	inNets   []netlist.NetID // concatenated input nets of all cells
	outNets  []netlist.NetID // 2 per cell (outputsPerCell); NoNet when unused
	outLen   []uint8         // number of declared output pins per cell

	// Per-net fanout in CSR form: the combinational cells reading each
	// net, deduplicated. DFF sinks are excluded — flipflops react only at
	// the clock edge, never during intra-cycle propagation.
	fanStart []int32
	fanCells []netlist.CellID

	// Flipflop shortcut lists so Step never scans the full cell array.
	dffCells []netlist.CellID
	dffD     []netlist.NetID // D input net per entry of dffCells
	dffQ     []netlist.NetID // Q output net per entry of dffCells

	// initVals is the reset-state settled value of every net: DFF outputs
	// at 0, primary inputs unknown, everything else the three-valued
	// steady state. Simulators start from a copy of this.
	initVals []logic.V

	// seqLevels and seqFeedback are the netlist's SequentialDepth,
	// computed once here rather than per measurement.
	seqLevels   int
	seqFeedback bool

	// fp is the netlist's Fingerprint: given to CompileFingerprinted, or
	// hashed on the first Fingerprint call.
	fpOnce sync.Once
	fp     string
}

// outputsPerCell is the per-cell stride of the outNets array (the widest
// cell types, HA and FA, have two output pins).
const outputsPerCell = 2

// Compile flattens a netlist into the simulator's hot-path form. The
// netlist must be valid (see netlist.Validate); Compile panics otherwise,
// since simulating an invalid netlist produces meaningless activity
// numbers.
func Compile(n *netlist.Netlist) *Compiled {
	if err := n.Validate(); err != nil {
		panic(fmt.Sprintf("sim: invalid netlist: %v", err))
	}
	nc, nn := n.NumCells(), n.NumNets()
	c := &Compiled{
		n:        n,
		cellType: make([]netlist.CellType, nc),
		inStart:  make([]int32, nc+1),
		outNets:  make([]netlist.NetID, outputsPerCell*nc),
		outLen:   make([]uint8, nc),
		fanStart: make([]int32, nn+1),
	}

	totalIn := 0
	for i := range n.Cells {
		totalIn += len(n.Cells[i].In)
	}
	c.inNets = make([]netlist.NetID, 0, totalIn)
	for i := range n.Cells {
		cell := &n.Cells[i]
		c.cellType[i] = cell.Type
		c.inStart[i] = int32(len(c.inNets))
		c.inNets = append(c.inNets, cell.In...)
		if len(cell.Out) > outputsPerCell {
			panic(fmt.Sprintf("sim: cell %s has %d output pins, kernel supports at most %d",
				cell.Name, len(cell.Out), outputsPerCell))
		}
		c.outLen[i] = uint8(len(cell.Out))
		for pin := 0; pin < outputsPerCell; pin++ {
			o := netlist.NoNet
			if pin < len(cell.Out) {
				o = cell.Out[pin]
			}
			c.outNets[outputsPerCell*i+pin] = o
		}
		if cell.Type == netlist.DFF {
			c.dffCells = append(c.dffCells, netlist.CellID(i))
			c.dffD = append(c.dffD, cell.In[0])
			c.dffQ = append(c.dffQ, cell.Out[0])
		}
	}
	c.inStart[nc] = int32(len(c.inNets))
	if len(c.dffCells) > 0 {
		c.seqLevels, c.seqFeedback = n.SequentialDepth()
	}

	// Fanout CSR, deduplicating cells that read the same net on several
	// pins (the epoch check in applyBatch would skip the repeat anyway,
	// but not walking it at all is cheaper).
	seen := make([]int32, nc)
	for i := range seen {
		seen[i] = -1
	}
	count := 0
	for netID := range n.Nets {
		for _, s := range n.Nets[netID].Sinks {
			if n.Cells[s.Cell].Type == netlist.DFF || seen[s.Cell] == int32(netID) {
				continue
			}
			seen[s.Cell] = int32(netID)
			count++
		}
	}
	c.fanCells = make([]netlist.CellID, 0, count)
	for i := range seen {
		seen[i] = -1
	}
	for netID := range n.Nets {
		c.fanStart[netID] = int32(len(c.fanCells))
		for _, s := range n.Nets[netID].Sinks {
			if n.Cells[s.Cell].Type == netlist.DFF || seen[s.Cell] == int32(netID) {
				continue
			}
			seen[s.Cell] = int32(netID)
			c.fanCells = append(c.fanCells, s.Cell)
		}
	}
	c.fanStart[nn] = int32(len(c.fanCells))

	// Reset-state settled values: DFFs reset to 0, primary inputs stay
	// unknown, and everything computable from constants and DFF reset
	// values settles by topological evaluation.
	c.initVals = make([]logic.V, nn)
	for _, q := range c.dffQ {
		c.initVals[q] = logic.L0
	}
	n.EvalOutputs(c.initVals)
	return c
}

// CompileFingerprinted is Compile for a caller that already holds fp,
// n's Fingerprint (a cache keyed by it), so that Fingerprint never
// hashes the netlist again.
func CompileFingerprinted(n *netlist.Netlist, fp string) *Compiled {
	c := Compile(n)
	c.fp = fp
	return c
}

// Netlist returns the netlist this compilation was built from.
func (c *Compiled) Netlist() *netlist.Netlist { return c.n }

// Fingerprint returns the netlist's structural fingerprint
// (netlist.Fingerprint). The netlist cannot change while compiled, so
// it is hashed at most once per Compiled, and not at all when
// CompileFingerprinted was given it.
func (c *Compiled) Fingerprint() string {
	c.fpOnce.Do(func() {
		if c.fp == "" {
			c.fp = c.n.Fingerprint()
		}
	})
	return c.fp
}

// Unsettled returns the first net whose value in vals (one per net) no
// kernel settles at, or NoNet when there is none: a connected output of
// a combinational cell, constant cells included, that differs from the
// cell's three-valued function of its inputs' values in vals, or a net
// with a lane whose two rails are both set. Primary inputs and
// flip-flop outputs may hold any level. A checkpoint resume checks its
// net values with it: the two wide kernels re-evaluate cells at
// different instants, so a value that contradicts its cell's inputs
// would be corrected differently by each.
func (c *Compiled) Unsettled(vals []logic.W) netlist.NetID {
	for net, v := range vals {
		if v.Zero&v.One != 0 {
			return netlist.NetID(net)
		}
	}
	for cid, t := range c.cellType {
		if t == netlist.DFF {
			continue
		}
		o0, o1, _ := evalCellWide(c, vals, netlist.CellID(cid))
		for pin, w := range [outputsPerCell]logic.W{o0, o1} {
			if o := c.outNets[outputsPerCell*cid+pin]; o != netlist.NoNet && vals[o] != w {
				return o
			}
		}
	}
	return netlist.NoNet
}

// SequentialDepth returns the netlist's SequentialDepth (register
// levels, and whether any flipflop sits on a feedback loop), computed
// once at Compile.
func (c *Compiled) SequentialDepth() (levels int, feedback bool) {
	return c.seqLevels, c.seqFeedback
}

// visitDelays resolves the delay model on every connected output pin of
// every combinational cell, in cell/pin order, calling f with the
// cell-output key (outputsPerCell*cell + pin) and the validated delay.
// It panics on delays outside [0, MaxInt32]. Every kernel resolves delay
// models exclusively through this walk (via NewDelayTable), so they can
// never disagree about which pins a model is asked about or which
// delays are legal. The pin enumeration itself is delay.VisitOutputs,
// shared with every other table-extraction consumer.
func (c *Compiled) visitDelays(dm delay.Model, f func(key, d int)) {
	n := c.n
	delay.VisitOutputs(n, dm, func(cid, pin, d int) {
		if d < 0 || d > math.MaxInt32 {
			panic(fmt.Sprintf("sim: delay %d for cell %s pin %d outside [0, MaxInt32]", d, n.Cells[cid].Name, pin))
		}
		f(outputsPerCell*cid+pin, d)
	})
}

// DelayTable is a delay model compiled against one netlist: the
// per-cell-output delays in a flat array indexed by cell-output key,
// plus the min/max bounds the kernels size their event queues by. Both
// the scalar and the word-parallel kernels consume the same table, built
// once at construction (or earlier, via Options.Delays, when a
// measurement wants to share one table across several kernels), so no
// hot loop ever calls delay.Model.Delay.
//
// A DelayTable is immutable after NewDelayTable returns and may be
// shared by any number of simulators, like the Compiled it was built
// from.
type DelayTable struct {
	c       *Compiled
	delays  []int32 // per cell-output key (outputsPerCell*cell + pin)
	min     int32   // smallest per-output delay; 1 when no combinational outputs
	max     int32   // largest per-output delay; 1 when no combinational outputs
	minEval int32   // smallest delay of a cell that has inputs; 1 when none has
}

// NewDelayTable resolves the delay model on every combinational output
// of the compiled netlist. A nil model means unit delay. Like simulator
// construction it panics on out-of-range delays.
func NewDelayTable(c *Compiled, dm delay.Model) *DelayTable {
	if dm == nil {
		dm = delay.Unit()
	}
	t := &DelayTable{
		c:       c,
		delays:  make([]int32, outputsPerCell*c.n.NumCells()),
		min:     -1,
		minEval: -1,
	}
	c.visitDelays(dm, func(key, d int) {
		t.delays[key] = int32(d)
		if t.min < 0 || int32(d) < t.min {
			t.min = int32(d)
		}
		if int32(d) > t.max {
			t.max = int32(d)
		}
		if cid := key / outputsPerCell; c.inStart[cid+1] > c.inStart[cid] && (t.minEval < 0 || int32(d) < t.minEval) {
			t.minEval = int32(d)
		}
	})
	if t.min < 0 {
		// No combinational outputs: trivially uniform unit delay.
		t.min, t.max = 1, 1
	}
	if t.minEval < 0 {
		t.minEval = 1
	}
	return t
}

// Compiled returns the compiled netlist the table was built for.
func (t *DelayTable) Compiled() *Compiled { return t.c }

// At returns the delay of one cell-output key.
func (t *DelayTable) At(key int) int { return int(t.delays[key]) }

// Min returns the smallest per-output delay.
func (t *DelayTable) Min() int { return int(t.min) }

// Max returns the largest per-output delay.
func (t *DelayTable) Max() int { return int(t.max) }

// MinEvaluated returns the smallest delay of an output pin of a cell
// that has inputs. Constant cells are never evaluated, so their delay
// (0 under the typical model) can neither split an instant nor
// schedule anything: a table whose MinEvaluated is at least 1 runs
// every instant as one event batch, even when Min is 0.
func (t *DelayTable) MinEvaluated() int { return int(t.minEval) }

// Digest returns an FNV-1a hash over the table's per-output delays, in
// key order. Two tables digest equal exactly when they assign the same
// delay to every cell-output key, so a measurement checkpoint can
// record the digest and refuse to resume under a different delay model
// (which would make the resumed half statistically incomparable).
func (t *DelayTable) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, d := range t.delays {
		u := uint32(d)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(u >> shift))
			h *= prime64
		}
	}
	return h
}

// Uniform reports whether every combinational output shares one delay,
// and returns it. Under a uniform delay >= 1 no pulse is narrower than
// a cell delay, so inertial and transport mode coincide.
func (t *DelayTable) Uniform() (int, bool) {
	if t.min != t.max {
		return 0, false
	}
	return int(t.min), true
}
