package netlist

import (
	"fmt"
	"sort"
	"strings"
)

// Lint is the static companion to Validate: where Validate rejects
// structurally ill-formed netlists, Lint accepts well-formed ones and
// reports the structural smells that make simulations slower, results
// misleading, or circuits simply not what the author meant — before any
// simulation runs. The service surfaces the findings as `warnings` in
// the POST /v1/circuits upload response, `glitchsim lint` prints them,
// and the test suite holds every registry built-in to zero warnings.

// Severity classifies a Finding: warnings indicate probable mistakes
// (all built-in circuits are warning-free), infos are structural
// observations (fanout profile, legal sequential feedback).
type Severity string

const (
	// SeverityWarning marks a probable mistake in the circuit.
	SeverityWarning Severity = "warning"
	// SeverityInfo marks a structural observation, not a defect.
	SeverityInfo Severity = "info"
)

// Finding kinds reported by Lint.
const (
	// KindUnusedInput: a primary input no cell reads (warning). The
	// stimulus toggles it every cycle but nothing can observe it.
	KindUnusedInput = "unused-input"
	// KindUndrivenNet: a non-input net with no driving cell (warning).
	// It would simulate as permanently unknown.
	KindUndrivenNet = "undriven-net"
	// KindDanglingNet: a driven net that is neither read by any cell
	// nor a primary output (info). Its activity is computed and then
	// discarded.
	KindDanglingNet = "dangling-net"
	// KindDeadCell: a cell from which no primary output is reachable
	// (warning). Its entire cone is simulated for nothing.
	KindDeadCell = "dead-cell"
	// KindCombLoop: a cycle of combinational cells (warning). Validate
	// rejects these; Lint reports the cycle for netlists built by hand.
	KindCombLoop = "comb-loop"
	// KindFeedbackLoop: a flipflop whose next-state input depends on
	// its own output (info). Legal and common (accumulators), but worth
	// surfacing: such state never flushes to a function of recent
	// inputs alone.
	KindFeedbackLoop = "feedback-loop"
	// KindFanout: the netlist's fanout profile (info): maximum and mean
	// sinks per driven net.
	KindFanout = "fanout"
	// KindReconvergence: count of reconvergent fanout stems (info) —
	// nets whose fanout branches meet again at a downstream cell.
	// Reconvergence is the structural source of glitches: unequal
	// branch delays race at the meeting cell.
	KindReconvergence = "reconvergence"
)

// A Finding is one lint observation about a netlist.
type Finding struct {
	Kind     string   `json:"kind"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
	// Nets and Cells name the subjects, when the finding has specific
	// ones (capped; the message carries the counts).
	Nets  []string `json:"nets,omitempty"`
	Cells []string `json:"cells,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Severity, f.Kind, f.Message)
}

// HasWarnings reports whether any finding is warning-severity.
func HasWarnings(fs []Finding) bool {
	for _, f := range fs {
		if f.Severity == SeverityWarning {
			return true
		}
	}
	return false
}

// subjectCap bounds the per-finding subject lists; messages always
// carry full counts.
const subjectCap = 16

// reconvergenceWorkCap bounds the total cell visits the reconvergence
// scan spends across all stems, so Lint stays near-linear even on
// pathological high-fanout netlists. Past the cap the count is reported
// as a lower bound.
const reconvergenceWorkCap = 1 << 20

// Lint statically analyzes a netlist and returns its findings, most
// severe first (warnings before infos, stable order within each). A
// nil or empty netlist has no findings.
func (n *Netlist) Lint() []Finding {
	if n == nil || len(n.Nets) == 0 {
		return nil
	}
	var fs []Finding
	fs = append(fs, n.lintNets()...)
	fs = append(fs, n.lintDeadCells()...)
	fs = append(fs, n.lintCombLoop()...)
	fs = append(fs, n.lintFeedback()...)
	fs = append(fs, n.lintFanout()...)
	fs = append(fs, n.lintReconvergence()...)
	sort.SliceStable(fs, func(i, j int) bool {
		return fs[i].Severity == SeverityWarning && fs[j].Severity != SeverityWarning
	})
	return fs
}

// lintNets covers the per-net checks: unused inputs, undriven nets,
// dangling nets.
func (n *Netlist) lintNets() []Finding {
	po := make(map[NetID]bool, len(n.POs))
	for _, id := range n.POs {
		po[id] = true
	}
	pi := make(map[NetID]bool, len(n.PIs))
	for _, id := range n.PIs {
		pi[id] = true
	}
	var unused, undriven, dangling []string
	for i := range n.Nets {
		net := &n.Nets[i]
		driverless := net.Driver == NoCell || int(net.Driver) >= len(n.Cells)
		switch {
		case driverless && pi[net.ID]:
			if len(net.Sinks) == 0 && !po[net.ID] {
				unused = append(unused, net.Name)
			}
		case driverless:
			// No driver and not a declared primary input: floating.
			undriven = append(undriven, net.Name)
		case len(net.Sinks) == 0 && !po[net.ID]:
			dangling = append(dangling, net.Name)
		}
	}
	var fs []Finding
	if len(unused) > 0 {
		fs = append(fs, Finding{
			Kind: KindUnusedInput, Severity: SeverityWarning,
			Message: fmt.Sprintf("%d primary input(s) are never read: %s", len(unused), joinCapped(unused)),
			Nets:    capped(unused),
		})
	}
	if len(undriven) > 0 {
		fs = append(fs, Finding{
			Kind: KindUndrivenNet, Severity: SeverityWarning,
			Message: fmt.Sprintf("%d net(s) have no driver and are not primary inputs: %s", len(undriven), joinCapped(undriven)),
			Nets:    capped(undriven),
		})
	}
	if len(dangling) > 0 {
		fs = append(fs, Finding{
			Kind: KindDanglingNet, Severity: SeverityInfo,
			Message: fmt.Sprintf("%d driven net(s) are neither read nor primary outputs: %s", len(dangling), joinCapped(dangling)),
			Nets:    capped(dangling),
		})
	}
	return fs
}

// lintDeadCells reports cells outside the fanin cone of every primary
// output: backward reachability from the POs over net drivers.
func (n *Netlist) lintDeadCells() []Finding {
	if len(n.Cells) == 0 {
		return nil
	}
	liveCell := make([]bool, len(n.Cells))
	netSeen := make([]bool, len(n.Nets))
	var stack []NetID
	for _, id := range n.POs {
		if !netSeen[id] {
			netSeen[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := n.Nets[id].Driver
		if d == NoCell || int(d) >= len(n.Cells) {
			continue
		}
		if liveCell[d] {
			continue
		}
		liveCell[d] = true
		for _, in := range n.Cells[d].In {
			if in >= 0 && int(in) < len(n.Nets) && !netSeen[in] {
				netSeen[in] = true
				stack = append(stack, in)
			}
		}
	}
	var dead []string
	for i := range n.Cells {
		if !liveCell[i] {
			dead = append(dead, cellLabel(&n.Cells[i]))
		}
	}
	if len(dead) == 0 {
		return nil
	}
	return []Finding{{
		Kind: KindDeadCell, Severity: SeverityWarning,
		Message: fmt.Sprintf("%d cell(s) reach no primary output: %s", len(dead), joinCapped(dead)),
		Cells:   capped(dead),
	}}
}

// lintCombLoop reports one combinational cycle, if any, reusing
// Validate's cycle finder.
func (n *Netlist) lintCombLoop() []Finding {
	cycle := n.findCombinationalCycle()
	if len(cycle) == 0 {
		return nil
	}
	names := make([]string, 0, len(cycle))
	for _, cid := range cycle {
		names = append(names, cellLabel(&n.Cells[cid]))
	}
	return []Finding{{
		Kind: KindCombLoop, Severity: SeverityWarning,
		Message: fmt.Sprintf("combinational cycle through %d cell(s): %s", len(cycle), joinCapped(names)),
		Cells:   capped(names),
	}}
}

// lintFeedback reports flipflops on sequential feedback loops: DFFs
// whose D input transitively depends on their own Q output through
// combinational logic and other DFFs, as found by the same
// register-graph pass as SequentialLevels.
func (n *Netlist) lintFeedback() []Finding {
	rg := n.registerGraph()
	var names []string
	for di, cid := range rg.dffs {
		if rg.inLoop[di] {
			names = append(names, cellLabel(&n.Cells[cid]))
		}
	}
	if len(names) == 0 {
		return nil
	}
	return []Finding{{
		Kind: KindFeedbackLoop, Severity: SeverityInfo,
		Message: fmt.Sprintf("%d flipflop(s) sit on sequential feedback loops: %s", len(names), joinCapped(names)),
		Cells:   capped(names),
	}}
}

// lintFanout reports the fanout profile of driven nets.
func (n *Netlist) lintFanout() []Finding {
	maxFan, total, driven := 0, 0, 0
	maxNet := ""
	for i := range n.Nets {
		net := &n.Nets[i]
		driven++
		total += len(net.Sinks)
		if len(net.Sinks) > maxFan {
			maxFan, maxNet = len(net.Sinks), net.Name
		}
	}
	if driven == 0 {
		return nil
	}
	return []Finding{{
		Kind: KindFanout, Severity: SeverityInfo,
		Message: fmt.Sprintf("max %d (net %q), mean %.2f over %d nets", maxFan, maxNet, float64(total)/float64(driven), driven),
	}}
}

// lintReconvergence counts reconvergent fanout stems: nets with >= 2
// sinks whose branches meet again at a downstream cell (through
// combinational logic; flipflops cut the propagation). Each stem is
// scanned by a forward branch-marking BFS — a cell first reached via
// two different branches of the stem is a reconvergence point — with
// total work across stems capped at reconvergenceWorkCap.
func (n *Netlist) lintReconvergence() []Finding {
	// branch[c] is the branch index (1-based) that first reached cell
	// c in the current epoch; reconv[c] records cells already counted.
	branch := make([]int32, len(n.Cells))
	epochOf := make([]int, len(n.Cells))
	stems, points := 0, 0
	work := 0
	truncated := false
	type item struct {
		cell CellID
		br   int32
	}
	var queue []item
	epoch := 0
	for i := range n.Nets {
		net := &n.Nets[i]
		if len(net.Sinks) < 2 {
			continue
		}
		epoch++
		queue = queue[:0]
		for bi, sink := range net.Sinks {
			queue = append(queue, item{sink.Cell, int32(bi + 1)})
		}
		stemReconverges := false
		for len(queue) > 0 {
			if work >= reconvergenceWorkCap {
				truncated = true
				break
			}
			work++
			it := queue[0]
			queue = queue[1:]
			c := it.cell
			if c == NoCell || int(c) >= len(n.Cells) {
				continue
			}
			if epochOf[c] == epoch {
				if branch[c] != it.br && branch[c] != -1 {
					// Reached via a second distinct branch:
					// reconvergence point.
					if !stemReconverges {
						stemReconverges = true
						stems++
					}
					points++
					branch[c] = -1 // count each meeting cell once per stem
				}
				continue
			}
			epochOf[c] = epoch
			branch[c] = it.br
			cell := &n.Cells[c]
			if cell.Type == DFF {
				continue // sequential boundary: races can't cross it
			}
			for _, out := range cell.Out {
				if out == NoNet || int(out) >= len(n.Nets) {
					continue
				}
				for _, sink := range n.Nets[out].Sinks {
					queue = append(queue, item{sink.Cell, it.br})
				}
			}
		}
		if truncated {
			break
		}
	}
	if stems == 0 && !truncated {
		return nil
	}
	msg := fmt.Sprintf("%d reconvergent fanout stem(s) with %d meeting point(s) — unequal branch delays race there", stems, points)
	if truncated {
		msg = fmt.Sprintf("at least %d reconvergent fanout stem(s) with %d meeting point(s) (scan capped)", stems, points)
	}
	return []Finding{{Kind: KindReconvergence, Severity: SeverityInfo, Message: msg}}
}

// cellLabel names a cell for findings: its name when set, else
// type#id.
func cellLabel(c *Cell) string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("%s#%d", c.Type, c.ID)
}

// capped returns at most subjectCap entries of names.
func capped(names []string) []string {
	if len(names) > subjectCap {
		return names[:subjectCap:subjectCap]
	}
	return names
}

// joinCapped renders names for a message, eliding past the cap.
func joinCapped(names []string) string {
	if len(names) <= subjectCap {
		return strings.Join(names, ", ")
	}
	return strings.Join(names[:subjectCap], ", ") + ", …"
}
