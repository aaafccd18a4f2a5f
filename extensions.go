package glitchsim

import (
	"context"
	"fmt"
	"io"
	"math"

	"glitchsim/internal/analytic"
	"glitchsim/internal/balance"
	"glitchsim/internal/circuits"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/power"
	"glitchsim/internal/sim"
	"glitchsim/internal/stats"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

// This file hosts the extension studies beyond the paper's own tables:
// delay-path balancing (the paper's §6 "balancing delay paths" made
// concrete), the adder-architecture comparison its reference [2]
// performs, the §4.2 correlation claim, and Verilog interchange. Like
// the paper experiments, each study is an Engine method taking a
// context.

// BalanceRow compares one circuit before and after delay balancing.
type BalanceRow struct {
	Circuit string
	// Before and After are the activity measurements; After includes the
	// padding buffers.
	Before, After Activity
	// CoreTransitions is the balanced circuit's activity on the original
	// (non-buffer) cells only: by construction all useful, so the
	// original logic's reduction factor is Before.Transitions /
	// CoreTransitions ≈ 1 + L/F, the paper's predicted limit.
	CoreTransitions uint64
	// BufferTransitions is the activity the padding buffers themselves
	// add — the overhead the paper's thought experiment ignores, and the
	// reason the real technique of §5 is retiming, not padding.
	BufferTransitions uint64
	// Buffers is the number of padding buffers inserted.
	Buffers int
	// BeforeLogicMW / AfterLogicMW are the combinational power
	// components; After includes buffer switching and capacitance.
	BeforeLogicMW, AfterLogicMW float64
	// PredictedFactor is 1 + L/F; CoreFactor is the measured reduction
	// on original cells; TotalFactor includes buffer overhead (and can
	// be < 1 when padding is very deep).
	PredictedFactor, CoreFactor, TotalFactor float64
}

// BalanceStudy verifies the paper's balance-limit claim on real
// circuits: each circuit is buffer-padded until all paths are balanced,
// then re-measured. Useless activity drops to zero and the original
// cells' activity falls by exactly 1 + L/F; the buffers' own switching
// is reported separately as the cost of the technique.
func (e *Engine) BalanceStudy(ctx context.Context, req ExperimentRequest) ([]BalanceRow, error) {
	if err := fixedCircuit("BalanceStudy", req); err != nil {
		return nil, err
	}
	var rows []BalanceRow
	for _, build := range []func() *netlist.Netlist{
		func() *netlist.Netlist { return circuits.NewRCA(16, circuits.Cells) },
		func() *netlist.Netlist { return circuits.NewArrayMultiplier(8, circuits.Cells) },
		func() *netlist.Netlist {
			return circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells})
		},
	} {
		n := build()
		res, err := balance.Pad(n, delay.Unit(), balance.Options{})
		if err != nil {
			return nil, err
		}
		bdBefore, before, err := e.MeasurePower(ctx, MeasureRequest{
			Circuit: CircuitFromNetlist(n), Config: Config{Cycles: req.Cycles, Seed: req.Seed},
		})
		if err != nil {
			return nil, err
		}
		counter, err := e.MeasureDetailed(ctx, MeasureRequest{
			Circuit: CircuitFromNetlist(res.Netlist), Config: Config{Cycles: req.Cycles, Seed: req.Seed},
		})
		if err != nil {
			return nil, err
		}
		after := summarize(res.Netlist.Name, counter)
		bdAfter := power.FromActivity(counter, e.tech)

		var coreT, bufT uint64
		for _, id := range res.Netlist.InternalNets() {
			st := counter.Stats(id)
			if res.Netlist.Cell(res.Netlist.Net(id).Driver).Type == netlist.Buf {
				bufT += st.Transitions
			} else {
				coreT += st.Transitions
			}
		}
		row := BalanceRow{
			Circuit:           n.Name,
			Before:            before,
			After:             after,
			CoreTransitions:   coreT,
			BufferTransitions: bufT,
			Buffers:           res.BuffersInserted,
			BeforeLogicMW:     bdBefore.LogicW * 1e3,
			AfterLogicMW:      bdAfter.LogicW * 1e3,
			PredictedFactor:   before.BalanceLimitFactor(),
		}
		if coreT > 0 {
			row.CoreFactor = float64(before.Transitions) / float64(coreT)
		}
		if after.Transitions > 0 {
			row.TotalFactor = float64(before.Transitions) / float64(after.Transitions)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AdderRow is one architecture in the adder comparison.
type AdderRow struct {
	Arch  string
	Depth int
	Cells int
	Activity
}

// AdderStudy compares ripple-carry, carry-select and carry-lookahead
// adders of one width (req.Width, default 16) for transition activity —
// the comparison the paper's reference [2] (Callaway & Swartzlander)
// makes: shallower, better-balanced carry structures glitch less.
func (e *Engine) AdderStudy(ctx context.Context, req ExperimentRequest) ([]AdderRow, error) {
	if err := fixedCircuit("AdderStudy", req); err != nil {
		return nil, err
	}
	w := req.Width
	if w == 0 {
		w = 16
	}
	return e.archStudy(ctx, req, []archBuild{
		{"ripple-carry", circuits.NewRCA(w, circuits.Gates)},
		{"carry-select", circuits.NewCarrySelect(w, 4, circuits.Gates)},
		{"carry-lookahead", circuits.NewCLA(w)},
	})
}

// MultiplierStudy extends Table 1 with the radix-4 Booth multiplier: a
// third architecture whose recoding halves the partial products but adds
// its own reconvergent select logic. Returns rows for array, wallace and
// booth at req.Width (default 8; must be even for Booth).
func (e *Engine) MultiplierStudy(ctx context.Context, req ExperimentRequest) ([]AdderRow, error) {
	if err := fixedCircuit("MultiplierStudy", req); err != nil {
		return nil, err
	}
	w := req.Width
	if w == 0 {
		w = 8
	}
	return e.archStudy(ctx, req, []archBuild{
		{"array", circuits.NewArrayMultiplier(w, circuits.Cells)},
		{"wallace", circuits.NewWallaceMultiplier(w, circuits.Cells)},
		{"booth", circuits.NewBoothMultiplier(w, circuits.Cells)},
	})
}

// archBuild names one architecture of an activity comparison study.
type archBuild struct {
	arch string
	n    *netlist.Netlist
}

// archStudy measures the architectures on the engine's pool and reports
// one row per build, in build order.
func (e *Engine) archStudy(ctx context.Context, req ExperimentRequest, builds []archBuild) ([]AdderRow, error) {
	jobs := make([]MeasureJob, len(builds))
	for i, bld := range builds {
		jobs[i] = MeasureJob{Circuit: CircuitFromNetlist(bld.n), Config: Config{Cycles: req.Cycles, Seed: req.Seed}}
	}
	res, err := e.measureMany(ctx, jobs, 0, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]AdderRow, len(builds))
	for i, bld := range builds {
		if res[i].Err != nil {
			return nil, res[i].Err
		}
		rows[i] = AdderRow{
			Arch:     bld.arch,
			Depth:    bld.n.LogicDepth(),
			Cells:    bld.n.NumCells(),
			Activity: res[i].Activity,
		}
	}
	return rows, nil
}

// EstimatorComparison is the three-way estimator ablation on one
// circuit: glitch-blind zero-delay, density propagation, and the
// event-driven ground truth.
type EstimatorComparison struct {
	Circuit string
	// Estimates in transitions per cycle.
	ZeroDelay, Density, Measured, MeasuredUseful float64
}

// CompareEstimators runs the three activity estimates on an N-bit RCA
// (req.Width, default 16): zero-delay tracks the useful activity,
// density propagation lands in between, and only event-driven simulation
// captures the full glitching.
func (e *Engine) CompareEstimators(ctx context.Context, req ExperimentRequest) (EstimatorComparison, error) {
	if err := fixedCircuit("CompareEstimators", req); err != nil {
		return EstimatorComparison{}, err
	}
	w := req.Width
	if w == 0 {
		w = 16
	}
	nl := circuits.NewRCA(w, circuits.Cells)
	act, err := e.Measure(ctx, MeasureRequest{Circuit: CircuitFromNetlist(nl), Config: Config{Cycles: req.Cycles, Seed: req.Seed}})
	if err != nil {
		return EstimatorComparison{}, err
	}
	return EstimatorComparison{
		Circuit:        nl.Name,
		ZeroDelay:      analytic.ZeroDelayActivityTotal(nl),
		Density:        analytic.DensityActivityTotal(nl),
		Measured:       float64(act.Transitions) / float64(act.Cycles),
		MeasuredUseful: float64(act.Useful) / float64(act.Cycles),
	}, nil
}

// CorrelationRow reports the per-stage signal statistics of the
// direction detector under correlated video stimulus.
type CorrelationRow struct {
	Stage string
	// LowBitAutocorr is the mean |lag-1 autocorrelation| of the two
	// least-significant (switching-dominant) bits.
	LowBitAutocorr float64
	// MeanToggle is the average end-of-cycle toggle rate of the bus.
	MeanToggle float64
}

// CorrelationStudy measures how input correlation decays through the
// direction detector's stages under video-like stimulus, quantifying the
// paper's §4.2 claim that "signal statistics and correlations are almost
// completely lost immediately after the absolute differences are taken".
// req.Cycles defaults to 4000 simulated cycles, req.Seed to 1.
func (e *Engine) CorrelationStudy(ctx context.Context, req ExperimentRequest) ([]CorrelationRow, error) {
	if err := fixedCircuit("CorrelationStudy", req); err != nil {
		return nil, err
	}
	if req.Cycles == 0 {
		req.Cycles = 4000
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	n := circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells})
	collector := stats.NewCollector(n, nil)
	opts := sim.Options{Delay: delay.Unit()}
	if ctx.Done() != nil {
		opts.Cancel = ctx.Err
	}
	c := e.compiled(n, "")
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	s := sim.NewFromCompiled(c, opts)
	s.AttachMonitor(collector)
	src := stimulus.NewConcat(
		stimulus.NewCorrelated(6, 8, 2, req.Seed),
		stimulus.NewConstant(logic.VectorFromUint(8, 8)),
	)
	for i := 0; i < req.Cycles; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.Step(src.Next()); err != nil {
			return nil, err
		}
	}
	lowBits := func(buses ...string) (corr, tog float64) {
		count := 0
		for _, bus := range buses {
			ids := n.Bus(bus)
			if len(ids) < 2 {
				continue
			}
			for _, id := range ids[:2] {
				corr += math.Abs(collector.Autocorr(id))
				tog += collector.ToggleRate(id)
				count++
			}
		}
		if count > 0 {
			corr /= float64(count)
			tog /= float64(count)
		}
		return corr, tog
	}
	var rows []CorrelationRow
	for _, stage := range []struct {
		name  string
		buses []string
	}{
		{"video inputs", []string{"a0", "a1", "a2", "b0", "b1", "b2"}},
		{"after |a-b|", []string{"d0", "d1", "d2"}},
		{"after min/max", []string{"min", "max"}},
		{"spread", []string{"spread"}},
	} {
		corr, tog := lowBits(stage.buses...)
		rows = append(rows, CorrelationRow{Stage: stage.name, LowBitAutocorr: corr, MeanToggle: tog})
	}
	return rows, nil
}

// BalanceNetlist pads a netlist's delay paths with buffers until every
// cell's inputs arrive simultaneously (see internal/balance). It returns
// the balanced netlist and the number of buffers inserted.
func BalanceNetlist(n *netlist.Netlist, dm delay.Model) (*netlist.Netlist, int, error) {
	res, err := balance.Pad(n, dm, balance.Options{})
	if err != nil {
		return nil, 0, err
	}
	return res.Netlist, res.BuffersInserted, nil
}

// ExportVerilog writes the netlist as structural Verilog.
func ExportVerilog(w io.Writer, n *netlist.Netlist) error { return verilog.Write(w, n) }

// ImportVerilog parses structural Verilog (the subset ExportVerilog
// emits) into a netlist.
func ImportVerilog(r io.Reader) (*netlist.Netlist, error) { return verilog.Parse(r) }

// NewCLA returns an N-bit carry-lookahead adder (4-bit blocks).
func NewCLA(width int) *netlist.Netlist { return circuits.NewCLA(width) }

// NewCarrySelect returns an N-bit carry-select adder with the given
// block size.
func NewCarrySelect(width, blockSize int) *netlist.Netlist {
	return circuits.NewCarrySelect(width, blockSize, circuits.Gates)
}

// Summary formats the key figures of one Activity for logs.
func Summary(a Activity) string {
	return fmt.Sprintf("%s L/F=%.2f (%d/%d)", a.Circuit, a.LOverF(), a.Useless, a.Useful)
}
