package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"glitchsim"
	"glitchsim/internal/registry"
	"glitchsim/internal/service"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

// The correctness oracle: replies are recomputed through the library
// path on a fresh Engine (no server, no shared cache) and must match the
// service's exactly, and at -seed 1 the warm-up replies must match the
// recorded goldens.

// The oracle checks every oracleStride-th reply, and the first oracleMin
// so that short windows still get at least oracleMin checks.
const (
	oracleMin    = 200
	oracleStride = 50
)

// keepReply reports whether the window keeps operation i's reply for
// the oracle.
func keepReply(i int) bool { return i < oracleMin || i%oracleStride == 0 }

// checkOracle regenerates the ops of the window records that kept their
// reply and recomputes those replies with workers goroutines on one fresh
// Engine. It returns how many it checked and one error per mismatch.
func checkOracle(ctx context.Context, wl *workload, seed uint64, recs []opRecord, workers int) (int, []error) {
	var sample []int
	for i := range recs {
		if recs[i].err == nil && recs[i].reply != nil {
			sample = append(sample, i)
		}
	}
	e := glitchsim.NewEngine()
	var mu sync.Mutex
	var errs []error
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := checkReply(ctx, e, wl, seed, &recs[i]); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, i := range sample {
		next <- i
	}
	close(next)
	wg.Wait()
	return len(sample), errs
}

func checkReply(ctx context.Context, e *glitchsim.Engine, wl *workload, seed uint64, rec *opRecord) error {
	o, err := wl.Gen(seed, streamWindow, rec.index)
	if err != nil {
		return err
	}
	want, err := recompute(ctx, e, o)
	if err != nil {
		return fmt.Errorf("oracle: op %d: %w", rec.index, err)
	}
	got, err := rec.reply.canonical(o.Kind)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("oracle: op %d: service replied %s, library computes %s", rec.index, got, want)
	}
	return nil
}

// recompute returns the canonical reply (see reply.canonical) the
// library path produces for o.
func recompute(ctx context.Context, e *glitchsim.Engine, o *op) ([]byte, error) {
	if o.Kind == kindSweep {
		var p service.ExperimentParams
		if err := json.Unmarshal(o.Body, &p); err != nil {
			return nil, err
		}
		req := glitchsim.ExperimentRequest{Seed: p.Seed}
		t1, err := e.Table1(ctx, req)
		if err != nil {
			return nil, err
		}
		t2, err := e.Table2(ctx, req)
		if err != nil {
			return nil, err
		}
		t3, err := e.Table3(ctx, req)
		if err != nil {
			return nil, err
		}
		f10, err := e.Figure10(ctx, req)
		if err != nil {
			return nil, err
		}
		return json.Marshal([]any{
			service.RowsResponse{Rows: service.MultRowsFrom(t1)},
			service.RowsResponse{Rows: service.MultRowsFrom(t2)},
			service.Table3Response{Rows: service.Table3RowsFrom(t3)},
			service.Fig10From(f10),
		})
	}
	var nl *netlist.Netlist
	var err error
	if o.Kind == kindUpload {
		nl, err = verilog.Parse(bytes.NewReader(o.Verilog))
	} else {
		nl, err = registry.Build(o.Measure.Circuit)
	}
	if err != nil {
		return nil, err
	}
	req := glitchsim.MeasureRequest{Netlist: nl, Config: measureConfig(&o.Measure)}
	kernel, err := e.SelectedKernel(req)
	if err != nil {
		return nil, err
	}
	resp := service.MeasureResponse{Kernel: string(kernel)}
	if o.Measure.Power {
		bd, act, err := e.MeasurePower(ctx, req)
		if err != nil {
			return nil, err
		}
		pw := service.PowerFrom(bd)
		resp.Activity, resp.Power = service.ActivityFrom(act), &pw
	} else {
		act, err := e.Measure(ctx, req)
		if err != nil {
			return nil, err
		}
		resp.Activity = service.ActivityFrom(act)
	}
	return json.Marshal(&resp)
}

// measureConfig maps wire measurement parameters onto a library Config
// the way the service documents them: omitted cycles/warm-up select the
// defaults, an explicit 0 means zero, and any of dsum/dcarry/typical
// selects the registry delay model (unset sides default to 1). Jobs'
// checkpoint_every is left out: checkpointing never changes the result.
func measureConfig(p *service.MeasureParams) glitchsim.Config {
	cfg := glitchsim.Config{Seed: p.Seed, Inertial: p.Inertial, Lanes: p.Lanes}
	if p.DSum != 0 || p.DCarry != 0 || p.Typical {
		dsum, dcarry := p.DSum, p.DCarry
		if dsum == 0 {
			dsum = 1
		}
		if dcarry == 0 {
			dcarry = 1
		}
		cfg.Delay = registry.DelayModel(dsum, dcarry, p.Typical)
	}
	cfg.Cycles = wireCount(p.Cycles)
	cfg.Warmup = wireCount(p.Warmup)
	return cfg
}

func wireCount(v *int) int {
	switch {
	case v == nil:
		return 0
	case *v == 0:
		return glitchsim.ExplicitZero
	}
	return *v
}

// goldenJSON holds the canonical warm-up replies at -seed 1, per
// workload, in warm-up order. TestGolden regenerates it with -update.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// checkGolden compares the warm-up replies against the recorded goldens.
func checkGolden(workload string, warm []opRecord) []error {
	var golden map[string][]json.RawMessage
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return []error{fmt.Errorf("golden: %w", err)}
	}
	want := golden[workload]
	if len(want) != len(warm) {
		return []error{fmt.Errorf("golden: %d warm-up replies recorded for %s, %d sent", len(want), workload, len(warm))}
	}
	var errs []error
	for i := range warm {
		got, err := warm[i].reply.canonical(warm[i].op.Kind)
		if err != nil {
			return []error{err}
		}
		var w bytes.Buffer
		if err := json.Compact(&w, want[i]); err != nil {
			return []error{fmt.Errorf("golden: %w", err)}
		}
		if !bytes.Equal(got, w.Bytes()) {
			errs = append(errs, fmt.Errorf("golden: %s warm-up op %d replied %s, recorded %s", workload, i, got, w.Bytes()))
		}
	}
	return errs
}

// paperLine reports a sweep reply against the paper's Table 1 L/F
// figures and Table 3 optimum. It is informational: the simulator's
// delay model is not the paper's, so no run is failed on it.
func paperLine(r *reply) string {
	var b bytes.Buffer
	b.WriteString("paper accuracy: table1 L/F")
	ref := []float64{1.51, 3.26, 0.28, 0.16}
	for i, row := range r.Table1.Rows {
		fmt.Fprintf(&b, " %s%d=%.2f (paper %.2f)", row.Arch, row.Width, row.Activity.LOverF, ref[i])
	}
	best := r.Table3.Rows[0]
	for _, row := range r.Table3.Rows {
		if row.TotalMW < best.TotalMW {
			best = row
		}
	}
	fmt.Fprintf(&b, "; table3 minimum total power at circuit %d (paper: circuit 3)", best.Circuit)
	return b.String()
}
