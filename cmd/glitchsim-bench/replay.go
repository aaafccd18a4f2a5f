package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"glitchsim"
	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/jobs"
	"glitchsim/internal/logic"
	"glitchsim/internal/power"
	"glitchsim/internal/registry"
	"glitchsim/internal/retime"
	"glitchsim/internal/service"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

// The replay re-executes an operation by calling each layer's public
// functions directly, in the order the service and engine call them,
// with a span around every call. Each replayed op must reproduce its live
// HTTP reply bit for bit: that is what keeps the replay from drifting
// away from the engine it times.

type replayer struct {
	ctx   context.Context
	tr    *tracer
	eng   *glitchsim.Engine // warm engine for EstimateCost, SelectedKernel and the checkpoint probe
	tech  power.Tech
	store *jobs.FileStore

	mu       sync.Mutex
	compiled map[string]*sim.Compiled // by fingerprint: the replay's own compile cache
	facts    map[string]*layerFacts   // by workload
}

func newReplayer(ctx context.Context, tr *tracer, store *jobs.FileStore) *replayer {
	return &replayer{
		ctx:      ctx,
		tr:       tr,
		eng:      glitchsim.NewEngine(),
		tech:     glitchsim.DefaultTech(),
		store:    store,
		compiled: map[string]*sim.Compiled{},
		facts:    map[string]*layerFacts{},
	}
}

// kernelRun describes one word-parallel kernel run.
type kernelRun struct {
	Kernel string
	Events uint64        // word events, warm-up included
	Lanes  int           // active lanes at the first measured step
	Steps  int           // warm-up plus measured steps
	Time   time.Duration // warm-up plus measured loop
}

// layerFacts gathers the per-op numbers that are not span durations.
type layerFacts struct {
	mu          sync.Mutex
	kernels     []kernelRun
	estRatio    []float64 // EstimateCost events / kernel events
	batchEff    []float64 // Σ row time / (batch wall × workers)
	captureUS   []float64 // checkpointed minus plain measurement, per checkpoint
	ckptBytes   []float64
	storePutMS  []float64
	checkpoints []float64 // checkpoint events per job, from the live stream
	queueWaitMS []float64 // from live job timestamps
	runMS       []float64
}

func (f *layerFacts) add(dst *[]float64, v float64) {
	f.mu.Lock()
	*dst = append(*dst, v)
	f.mu.Unlock()
}

func (r *replayer) factsFor(workload string) *layerFacts {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.facts[workload]
	if f == nil {
		f = &layerFacts{}
		r.facts[workload] = f
	}
	return f
}

// warm compiles o's circuit into both the replay cache and the warm
// engine, so replayed measure ops see compile hits as the live server's
// warmed engine does.
func (r *replayer) warm(o *op) error {
	if o.Kind != kindMeasure {
		return nil
	}
	nl, err := registry.Build(o.Measure.Circuit)
	if err != nil {
		return err
	}
	if _, err := r.eng.SelectedKernel(glitchsim.MeasureRequest{Netlist: nl, Config: measureConfig(&o.Measure)}); err != nil {
		return err
	}
	r.mu.Lock()
	if fp := nl.Fingerprint(); r.compiled[fp] == nil {
		r.compiled[fp] = sim.Compile(nl)
	}
	r.mu.Unlock()
	return nil
}

// replay re-executes o as an "op" root span and returns the reply it
// reconstructs.
func (r *replayer) replay(workload string, o *op) (*reply, error) {
	opID := fmt.Sprintf("%s/%d", workload, o.Index)
	f := r.factsFor(workload)
	root := r.tr.root(opID, "op")
	var rep *reply
	var nl *netlist.Netlist
	var err error
	switch o.Kind {
	case kindMeasure:
		rep, err = r.measureOp(root, f, o)
	case kindSweep:
		rep, err = r.sweepOp(root, f, o)
	case kindUpload:
		rep, nl, err = r.uploadOp(root, f, o)
	default:
		err = fmt.Errorf("unknown op kind %q", o.Kind)
	}
	root.end()
	if err == nil && o.Kind == kindUpload {
		err = r.checkpointProbe(opID, f, o, nl)
	}
	return rep, err
}

func (r *replayer) measureOp(s scope, f *layerFacts, o *op) (*reply, error) {
	var p service.MeasureParams
	var err error
	s.run("service.decode", func() { err = decodeStrict(o.Body, &p) })
	if err != nil {
		return nil, err
	}
	var nl *netlist.Netlist
	s.run("resolve.build", func() { nl, err = registry.Build(p.Circuit) })
	if err != nil {
		return nil, err
	}
	cfg := measureConfig(&p)
	req := glitchsim.MeasureRequest{Netlist: nl, Config: cfg}
	var est glitchsim.CostEstimate
	s.run("admission.estimate", func() { est, err = r.eng.EstimateCost(req) })
	if err != nil {
		return nil, err
	}
	var kernel glitchsim.Kernel
	s.run("compile.hit", func() { kernel, err = r.eng.SelectedKernel(req) })
	if err != nil {
		return nil, err
	}
	counter, run, err := r.simulate(s, f, r.compile(s, nl), cfg)
	if err != nil {
		return nil, err
	}
	if string(kernel) != run.Kernel {
		return nil, fmt.Errorf("replay ran %s, engine selects %s", run.Kernel, kernel)
	}
	f.add(&f.estRatio, float64(est.Events)/float64(run.Events))
	resp := &service.MeasureResponse{Kernel: run.Kernel}
	if p.Power {
		var bd power.Breakdown
		s.run("power.breakdown", func() { bd = power.FromActivity(counter, r.tech) })
		pw := service.PowerFrom(bd)
		resp.Power = &pw
	}
	resp.Activity = service.ActivityFrom(r.summarize(s, nl.Name, counter))
	s.run("service.encode", func() { err = service.WriteJSON(io.Discard, resp) })
	return &reply{Measure: resp}, err
}

func (r *replayer) uploadOp(s scope, f *layerFacts, o *op) (*reply, *netlist.Netlist, error) {
	var nl *netlist.Netlist
	var err error
	s.run("upload.parse", func() { nl, err = verilog.Parse(bytes.NewReader(o.Verilog)) })
	if err != nil {
		return nil, nil, err
	}
	var findings []netlist.Finding
	s.run("upload.lint", func() { findings = nl.Lint() })
	if netlist.HasWarnings(findings) {
		return nil, nil, fmt.Errorf("uploaded circuit %s has lint warnings", nl.Name)
	}
	var p service.JobSubmitParams
	s.run("service.decode", func() { err = decodeStrict(o.Body, &p) })
	if err != nil {
		return nil, nil, err
	}
	if p.Measure == nil {
		return nil, nil, fmt.Errorf("job body of op %d has no measure parameters", o.Index)
	}
	counter, run, err := r.simulate(s, f, r.compile(s, nl), measureConfig(p.Measure))
	if err != nil {
		return nil, nil, err
	}
	resp := &service.MeasureResponse{Activity: service.ActivityFrom(r.summarize(s, nl.Name, counter)), Kernel: run.Kernel}
	s.run("service.encode", func() { err = service.WriteJSON(io.Discard, resp) })
	return &reply{Measure: resp}, nl, err
}

// checkpointProbe times the job layer's checkpointing outside the op
// span: the same measurement plain and with checkpoint_every (whose sink
// JSON-encodes each checkpoint, as the job executor does), and one
// FileStore.Put of a job record carrying the last checkpoint.
func (r *replayer) checkpointProbe(opID string, f *layerFacts, o *op, nl *netlist.Netlist) error {
	probe := r.tr.root(opID, "probe")
	defer probe.end()
	cfg := measureConfig(&o.Measure)
	req := glitchsim.MeasureRequest{Netlist: nl, Config: cfg}
	if _, err := r.eng.SelectedKernel(req); err != nil { // compiles, so both timed runs hit the cache
		return err
	}
	var plain, checked glitchsim.Activity
	var plainErr, checkedErr error
	var last []byte
	checkpoints, cycle := 0, 0
	cfg.CheckpointEvery = o.Measure.CheckpointEvery
	cfg.CheckpointSink = func(cp *glitchsim.MeasureCheckpoint) error {
		data, err := json.Marshal(cp)
		last, cycle = data, cp.Cycle
		checkpoints++
		return err
	}
	t0 := time.Now()
	probe.run("jobs.measure_plain", func() { plain, plainErr = r.eng.Measure(r.ctx, req) })
	t1 := time.Now()
	probe.run("jobs.measure_checkpointed", func() {
		checked, checkedErr = r.eng.Measure(r.ctx, glitchsim.MeasureRequest{Netlist: nl, Config: cfg})
	})
	t2 := time.Now()
	if err := errors.Join(plainErr, checkedErr); err != nil {
		return err
	}
	if plain != checked || checkpoints == 0 {
		return fmt.Errorf("checkpointed run of %s differs from the plain run (%d checkpoints)", nl.Name, checkpoints)
	}
	rec := jobs.Record{
		ID: fmt.Sprintf("%016x", o.Index), State: jobs.StateRunning, Kind: "measure", Request: o.Body,
		Checkpoint: last, CheckpointCycle: cycle, CreatedAt: t0,
	}
	var err error
	t3 := time.Now()
	probe.run("jobs.store_put", func() { err = r.store.Put(rec) })
	put := time.Since(t3)
	if err != nil {
		return err
	}
	f.add(&f.captureUS, us(t2.Sub(t1)-t1.Sub(t0))/float64(checkpoints))
	f.add(&f.ckptBytes, float64(len(last)))
	f.add(&f.storePutMS, ms(put))
	return nil
}

// The four paper experiments, replayed as the engine runs them.

type multSpec struct {
	arch         string
	width        int
	dsum, dcarry int
}

var (
	table1Specs = []multSpec{{"array", 8, 1, 1}, {"array", 16, 1, 1}, {"wallace", 8, 1, 1}, {"wallace", 16, 1, 1}}
	table2Specs = []multSpec{{"array", 8, 1, 1}, {"array", 8, 2, 1}, {"wallace", 8, 1, 1}, {"wallace", 8, 2, 1}}
)

func (r *replayer) sweepOp(s scope, f *layerFacts, o *op) (*reply, error) {
	out := &reply{}
	for _, name := range experiments {
		x := s.child("experiment." + name)
		var p service.ExperimentParams
		var err error
		x.run("service.decode", func() { err = decodeStrict(o.Body, &p) })
		if err != nil {
			x.end()
			return nil, err
		}
		var resp any
		switch name {
		case "table1", "table2":
			specs := table1Specs
			if name == "table2" {
				specs = table2Specs
			}
			var rows []glitchsim.MultRow
			rows, err = r.multTable(x, f, specs, p.Seed)
			dst := &out.Table1
			if name == "table2" {
				dst = &out.Table2
			}
			*dst = service.RowsResponse{Rows: service.MultRowsFrom(rows)}
			resp = dst
		case "table3":
			var rows []glitchsim.Table3Row
			rows, err = r.table3(x, f, p.Seed)
			out.Table3 = service.Table3Response{Rows: service.Table3RowsFrom(rows)}
			resp = &out.Table3
		case "figure10":
			var res glitchsim.Fig10Result
			res, err = r.figure10(x, f, p.Seed)
			out.Figure10 = service.Fig10From(res)
			resp = &out.Figure10
		}
		if err == nil {
			x.run("service.encode", func() { err = service.WriteJSON(io.Discard, resp) })
		}
		x.end()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *replayer) multTable(s scope, f *layerFacts, specs []multSpec, seed uint64) ([]glitchsim.MultRow, error) {
	nls := make([]*netlist.Netlist, len(specs))
	dms := make([]delay.Model, len(specs))
	cs := make([]*sim.Compiled, len(specs))
	for i, sp := range specs {
		s.run("resolve.build", func() {
			if sp.arch == "wallace" {
				nls[i] = circuits.NewWallaceMultiplier(sp.width, circuits.Cells)
			} else {
				nls[i] = circuits.NewArrayMultiplier(sp.width, circuits.Cells)
			}
		})
		dms[i] = delay.Unit()
		if sp.dsum != sp.dcarry {
			dms[i] = delay.FullAdderRatio(sp.dsum, sp.dcarry)
		}
		cs[i] = r.compile(s, nls[i])
	}
	rows := make([]glitchsim.MultRow, len(specs))
	err := r.fanout(s, f, len(specs), func(row scope, i int) error {
		counter, _, err := r.simulate(row, f, cs[i], glitchsim.Config{Cycles: experimentCycles, Seed: seed, Delay: dms[i]})
		if err != nil {
			return err
		}
		sp := specs[i]
		rows[i] = glitchsim.MultRow{Arch: sp.arch, Width: sp.width, DSum: sp.dsum, DCarry: sp.dcarry, Activity: r.summarize(row, nls[i].Name, counter)}
		return nil
	})
	return rows, err
}

// sweepBase is the retiming power sweeps' subject: the paper's
// input-registered direction detector.
func (r *replayer) sweepBase(s scope) (*netlist.Netlist, delay.Model, int) {
	var base *netlist.Netlist
	s.run("resolve.build", func() {
		base = circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells, RegisterInputs: true})
	})
	dm := delay.Unit()
	return base, dm, r.clockPeriod(s, base, dm)
}

func (r *replayer) clockPeriod(s scope, base *netlist.Netlist, dm delay.Model) int {
	var cp int
	s.run("retime.clock_period", func() { cp = retime.FromNetlist(base, dm, 0).ClockPeriod(nil) })
	return cp
}

func (r *replayer) table3(s scope, f *layerFacts, seed uint64) ([]glitchsim.Table3Row, error) {
	base, dm, cp := r.sweepBase(s)
	return r.powerSweep(s, f, base, dm, []int{cp, cp * 3 / 7, cp / 3, cp * 3 / 14}, 4*cp, seed)
}

func (r *replayer) figure10(s scope, f *layerFacts, seed uint64) (glitchsim.Fig10Result, error) {
	base, dm, cp := r.sweepBase(s)
	counter, _, err := r.simulate(s, f, r.compile(s, base), glitchsim.Config{Cycles: experimentCycles, Seed: seed})
	if err != nil {
		return glitchsim.Fig10Result{}, err
	}
	before := r.powerRow(s, counter, base.Name, glitchsim.Table3Row{Period: r.clockPeriod(s, base, dm)})
	targets := []int{cp, cp / 2, cp / 3, cp / 4, cp / 5, cp / 7, cp / 9, cp / 12}
	points, err := r.powerSweep(s, f, base, dm, targets, 8*cp, seed)
	return glitchsim.Fig10Result{Subject: base.Name, Before: before, Points: points}, err
}

// powerSweep retimes base for each target period and measures each
// variant's power, one batch row per target.
func (r *replayer) powerSweep(s scope, f *layerFacts, base *netlist.Netlist, dm delay.Model, targets []int, maxLatency int, seed uint64) ([]glitchsim.Table3Row, error) {
	rows := make([]glitchsim.Table3Row, len(targets))
	err := r.fanout(s, f, len(targets), func(row scope, i int) error {
		tgt := max(targets[i], 1)
		var res retime.Result
		var err error
		row.run("retime.for_period", func() { res, err = retime.ForPeriod(base, dm, tgt, maxLatency) })
		if err != nil {
			return err
		}
		cfg := glitchsim.Config{Cycles: experimentCycles, Seed: seed, Warmup: res.Latency + 16}
		counter, _, err := r.simulate(row, f, r.compile(row, res.Netlist), cfg)
		if err != nil {
			return err
		}
		rows[i] = r.powerRow(row, counter, res.Netlist.Name, glitchsim.Table3Row{
			Circuit: i + 1, TargetPeriod: tgt, Period: res.Period, Latency: res.Latency,
		})
		return nil
	})
	return rows, err
}

// powerRow fills a Table 3 row's power and activity columns.
func (r *replayer) powerRow(s scope, counter *core.Counter, name string, row glitchsim.Table3Row) glitchsim.Table3Row {
	var bd power.Breakdown
	s.run("power.breakdown", func() { bd = power.FromActivity(counter, r.tech) })
	act := r.summarize(s, name, counter)
	row.FFs = bd.NumFFs
	row.AreaMM2 = bd.AreaMM2
	row.ClockCapPF = bd.ClockCapF * 1e12
	row.LogicMW = bd.LogicW * 1e3
	row.FlipflopMW = bd.FlipflopW * 1e3
	row.ClockMW = bd.ClockW * 1e3
	row.TotalMW = bd.TotalW() * 1e3
	row.LOverF = act.LOverF()
	return row
}

// fanout runs f for rows 0..n-1 on the engine's default worker count, as
// the engine's batch layer does, inside one "batch" span.
func (r *replayer) fanout(s scope, f *layerFacts, n int, fn func(row scope, i int) error) error {
	workers := min(glitchsim.DefaultWorkers(), n)
	b := s.child("batch")
	start := time.Now()
	var next, busy atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				row := b.child("batch.row")
				t := time.Now()
				errs[i] = fn(row, i)
				busy.Add(int64(time.Since(t)))
				row.end()
			}
		}()
	}
	wg.Wait()
	b.end()
	f.add(&f.batchEff, float64(busy.Load())/(float64(time.Since(start))*float64(workers)))
	return errors.Join(errs...)
}

// compile resolves nl's compiled form: a fingerprint lookup in the
// replay's cache, compiling on a miss.
func (r *replayer) compile(s scope, nl *netlist.Netlist) *sim.Compiled {
	var fp string
	s.run("resolve.fingerprint", func() { fp = nl.Fingerprint() })
	r.mu.Lock()
	c := r.compiled[fp]
	r.mu.Unlock()
	if c == nil {
		s.run("compile.miss", func() { c = sim.Compile(nl) })
		r.mu.Lock()
		r.compiled[fp] = c
		r.mu.Unlock()
	}
	return c
}

func (r *replayer) summarize(s scope, name string, counter *core.Counter) glitchsim.Activity {
	var act glitchsim.Activity
	s.run("summarize", func() { act = glitchsim.ActivityFromCounter(name, counter) })
	return act
}

// simulate runs one lane-decomposed measurement the way the engine's
// word-parallel path does: cfg.Cycles random vectors spread over up to
// 64 seeded lanes, each lane warmed up first, on the kernel
// sim.NewWideKernel selects for the delay model. cfg.Cycles must exceed
// one and cfg.Source be nil (the only shapes the workloads send).
func (r *replayer) simulate(s scope, f *layerFacts, c *sim.Compiled, cfg glitchsim.Config) (*core.Counter, kernelRun, error) {
	n := c.Netlist()
	warmup := cfg.Warmup
	if warmup == 0 {
		warmup = 8
		if n.NumDFFs() > 0 {
			warmup = max(warmup, n.SequentialLevels()+1)
		}
	}
	seed := max(cfg.Seed, 1)
	dm := cfg.Delay
	if dm == nil {
		dm = delay.Unit()
	}
	lanes := min(glitchsim.MaxLanes, cfg.Cycles)

	var dt *sim.DelayTable
	s.run("delay.table", func() { dt = sim.NewDelayTable(c, dm) })
	var (
		ws      sim.WideKernel
		src     *stimulus.WideRandom
		counter *core.WideCounter
		quotas  = make([]int, lanes)
		buf     []logic.W
	)
	s.run("kernel.setup", func() {
		ws = sim.NewWideKernel(c, sim.Options{Delay: dm, Delays: dt, Mode: sim.Transport})
		seeds := make([]uint64, lanes)
		prng := stimulus.NewPRNG(seed)
		for l := range seeds {
			seeds[l] = prng.Uint64()
		}
		for l := range quotas {
			quotas[l] = cfg.Cycles / lanes
			if l < cfg.Cycles%lanes {
				quotas[l]++
			}
		}
		src = stimulus.NewWideRandom(n.InputWidth(), seeds)
		counter = core.NewWideCounter(n)
		buf = make([]logic.W, n.InputWidth())
	})
	step := func(loop scope) error {
		var v []logic.W
		loop.run("stimulus.next_wide", func() { v = src.NextWide(buf) })
		return ws.Step(v)
	}
	t := time.Now()
	loop := s.child("kernel.warmup")
	for i := 0; i < warmup; i++ {
		if err := step(loop); err != nil {
			loop.end()
			return nil, kernelRun{}, err
		}
	}
	loop.end()
	counter.SetLaneMask(laneMask(lanes))
	ws.AttachWideMonitor(counter)
	loop = s.child("kernel.measured")
	active := lanes
	for k := 0; k < quotas[0]; k++ {
		for active > 0 && quotas[active-1] <= k {
			active--
		}
		counter.SetLaneMask(laneMask(active))
		if err := step(loop); err != nil {
			loop.end()
			return nil, kernelRun{}, err
		}
	}
	loop.end()
	run := kernelRun{Kernel: ws.KernelName(), Events: ws.Events(), Lanes: lanes, Steps: warmup + quotas[0], Time: time.Since(t)}
	f.mu.Lock()
	f.kernels = append(f.kernels, run)
	f.mu.Unlock()
	var out *core.Counter
	s.run("counter.fold", func() { out = counter.Counter() })
	return out, run, nil
}

func laneMask(n int) uint64 {
	if n >= glitchsim.MaxLanes {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// decodeStrict decodes a request body as the service does: unknown
// fields are an error.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
