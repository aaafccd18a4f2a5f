package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"glitchsim/internal/service"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

// The four workloads and their seeded request generators. Every request
// body is a pure function of (-seed, workload, stream, operation index),
// so two runs with the same seed send byte-identical traffic and the
// oracle can rebuild any request from its index alone.

// Operation kinds: what one closed-loop operation sends.
const (
	kindMeasure = "measure" // one POST /v1/measure
	kindSweep   = "sweep"   // POST /v1/experiments/{table1,table2,table3,figure10}
	kindUpload  = "upload"  // POST /v1/circuits, POST /v1/jobs, follow events, GET result
)

// Streams keep the warm-up ops' stimulus seeds apart from the window's.
const (
	streamWindow = 0
	streamWarmup = 1
)

// experiments is the paper-sweep rotation, in request order.
var experiments = []string{"table1", "table2", "table3", "figure10"}

// experimentCycles is the measured-cycle count the experiment endpoints
// default to (the paper's 500-input run length); paper-sweep requests
// leave cycles unset so they reproduce the paper's own configuration.
const experimentCycles = 500

// workload is one traffic mix.
type workload struct {
	Name string
	// Clients is the closed-loop concurrency: each client holds one
	// keep-alive connection and sends its next operation as soon as the
	// previous one completes.
	Clients int
	// Tail is the percentile latency_tail_ms reports for this workload:
	// the highest of p99/p95/p90 that a full-length window leaves at
	// least ten samples beyond.
	Tail float64
	// Shapes is the number of distinct request shapes; the warm-up pass
	// sends one operation of each, paying every compile miss.
	Shapes int
	// Gen builds operation i of a stream.
	Gen func(seed uint64, stream, i int) (*op, error)
}

// op is one closed-loop operation, fully generated.
type op struct {
	Kind  string
	Index int
	// Body is the request body: the /v1/measure parameters, the shared
	// experiment parameters of a sweep, or the /v1/jobs submission.
	Body []byte
	// Measure holds the measurement parameters of a measure op or of an
	// upload op's job.
	Measure service.MeasureParams
	// Verilog and Fingerprint describe an upload op's generated circuit.
	Verilog     []byte
	Fingerprint string
}

// cycles returns the measured random-vector cycles the op asks the
// simulator for, given its reply (a sweep's row count comes from it).
func (o *op) cycles(r *reply) int {
	if o.Kind != kindSweep {
		return *o.Measure.Cycles
	}
	rows := len(r.Table1.Rows) + len(r.Table2.Rows) + len(r.Table3.Rows) + 1 + len(r.Figure10.Rows)
	return rows * experimentCycles
}

var workloads = []*workload{
	{Name: "measure-small", Clients: 2, Tail: 0.99, Shapes: 2 * len(smallCircuits), Gen: genSmall},
	{Name: "measure-heavy", Clients: 1, Tail: 0.99, Shapes: len(heavyCircuits) * len(heavyDelays), Gen: genHeavy},
	{Name: "paper-sweep", Clients: 1, Tail: 0.95, Shapes: 1, Gen: genSweep},
	{Name: "upload-jobs", Clients: 2, Tail: 0.95, Shapes: 1, Gen: genUpload},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// smallCircuits are measure-small's subjects: small enough that the
// per-request fixed costs dominate the kernel's inner loop.
var smallCircuits = []string{"rca8", "rca16", "cla16", "csel16", "dirdet8", "booth8", "accum16"}

// heavyCircuits and heavyDelays span both word-parallel kernels on
// ~500-1000-cell multipliers: the full-adder ratio and typical models
// select wide-event, unit delay wide-lockstep.
var (
	heavyCircuits = []string{"array16", "wallace16", "booth16"}
	heavyDelays   = []service.MeasureParams{{DSum: 2, DCarry: 1}, {Typical: true}, {Power: true}}
)

func genSmall(seed uint64, stream, i int) (*op, error) {
	shape := i % (2 * len(smallCircuits))
	p := service.MeasureParams{
		Circuit: smallCircuits[shape/2],
		Cycles:  intPtr(64),
		Seed:    opSeed(seed, "measure-small", stream, i),
		Typical: shape%2 == 1,
	}
	return measureOp(i, p)
}

func genHeavy(seed uint64, stream, i int) (*op, error) {
	shape := i % (len(heavyCircuits) * len(heavyDelays))
	p := heavyDelays[shape%len(heavyDelays)]
	p.Circuit = heavyCircuits[shape/len(heavyDelays)]
	p.Cycles = intPtr(1024)
	p.Seed = opSeed(seed, "measure-heavy", stream, i)
	return measureOp(i, p)
}

func measureOp(i int, p service.MeasureParams) (*op, error) {
	body, err := json.Marshal(&p)
	if err != nil {
		return nil, err
	}
	return &op{Kind: kindMeasure, Index: i, Body: body, Measure: p}, nil
}

func genSweep(seed uint64, stream, i int) (*op, error) {
	body, err := json.Marshal(service.ExperimentParams{Seed: opSeed(seed, "paper-sweep", stream, i)})
	if err != nil {
		return nil, err
	}
	return &op{Kind: kindSweep, Index: i, Body: body}, nil
}

// Upload-jobs job parameters: a checkpointed measurement long enough to
// cross several chunk boundaries (4096 cycles = 64 lane steps, so a
// checkpoint every 8 steps).
const (
	uploadCycles          = 4096
	uploadCheckpointEvery = 8
)

func genUpload(seed uint64, stream, i int) (*op, error) {
	s := opSeed(seed, "upload-jobs", stream, i)
	nl, err := randomDAG(s, fmt.Sprintf("rdag_%016x", s))
	if err != nil {
		return nil, err
	}
	var src bytes.Buffer
	if err := verilog.Write(&src, nl); err != nil {
		return nil, err
	}
	fp := nl.Fingerprint()
	p := service.MeasureParams{Circuit: fp, Cycles: intPtr(uploadCycles), Seed: s, CheckpointEvery: uploadCheckpointEvery}
	body, err := json.Marshal(service.JobSubmitParams{Kind: "measure", Measure: &p})
	if err != nil {
		return nil, err
	}
	return &op{Kind: kindUpload, Index: i, Body: body, Measure: p, Verilog: src.Bytes(), Fingerprint: fp}, nil
}

// Random-DAG shape: a few dozen inputs, 800-1200 generated cells, and at
// most maxDAGOutputs outputs once the unread nets are folded by XOR cells
// (which bring the total to about 1000-1500 cells).
const (
	dagWindow     = 512
	maxDAGOutputs = 32
)

var dagCellTypes = []netlist.CellType{
	netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
	netlist.Xor, netlist.Mux2, netlist.Maj3, netlist.FA, netlist.Not,
}

// randomDAG builds a seeded combinational circuit with reconvergent
// fanout: most cell inputs come from the last dagWindow nets, so paths
// of unequal length meet again downstream, which is where glitches come
// from. Every primary input is read, and every net nothing reads is
// folded into the outputs, so the circuit has no lint warnings (no unused
// inputs, no dead cells).
func randomDAG(seed uint64, name string) (*netlist.Netlist, error) {
	r := &rng{s: seed}
	b := netlist.NewBuilder(name)
	nIn := 24 + r.intn(9)
	nCells := 800 + r.intn(401)
	nets := b.InputBus("in", nIn)
	reads := make([]int, nIn)
	pick := func() netlist.NetID {
		if len(nets) > dagWindow && r.intn(5) != 0 {
			return nets[len(nets)-1-r.intn(dagWindow)]
		}
		return nets[r.intn(len(nets))]
	}
	for c := 0; c < nCells; c++ {
		t := dagCellTypes[r.intn(len(dagCellTypes))]
		k, _ := t.InputRange()
		if k == 2 && r.intn(4) == 0 {
			k = 3
		}
		ins := make([]netlist.NetID, 0, k)
		if c < nIn {
			ins = append(ins, nets[c])
		}
		for len(ins) < k {
			if n := pick(); !slices.Contains(ins, n) {
				ins = append(ins, n)
			}
		}
		for _, in := range ins {
			reads[in]++
		}
		for _, out := range b.AddCell(t, "", ins...) {
			nets = append(nets, out)
			reads = append(reads, 0)
		}
	}
	var unread []netlist.NetID
	for _, n := range nets {
		if reads[n] == 0 {
			unread = append(unread, n)
		}
	}
	for len(unread) > maxDAGOutputs {
		unread = append(unread[2:], b.Xor(unread[0], unread[1]))
	}
	b.OutputBus("out", unread)
	return b.Build()
}

// rng is splitmix64: the benchmark's own generator, so its inputs do not
// change when the simulator's stimulus PRNG does.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// opSeed derives the stimulus seed of one operation. Seeds are distinct
// per (workload, stream, index) with overwhelming probability and never
// zero (zero would select the service's default seed).
func opSeed(seed uint64, workload string, stream, i int) uint64 {
	r := &rng{s: seed}
	for _, c := range []byte(workload) {
		r.s = r.s*31 + uint64(c)
	}
	r.s ^= uint64(stream)<<48 ^ uint64(i)
	r.next()
	if s := r.next(); s != 0 {
		return s
	}
	return 1
}

func intPtr(v int) *int { return &v }
