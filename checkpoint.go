package glitchsim

// Measurement checkpoint/resume: the root-package face of checkpointed,
// resumable measurements. A lane-decomposed (word-parallel) measurement
// configured with Config.CheckpointEvery folds its partial counter at
// every chunk boundary into a MeasureCheckpoint and hands it to
// Config.CheckpointSink; a later run configured with Config.Resume
// continues from that snapshot — same per-lane seed streams fast-
// forwarded past the completed prefix, same kernel state, same counter
// totals — so interrupted+resumed statistics are bit-identical to an
// uninterrupted run.
//
// Chunk boundaries are pure observation points: the kernels' dynamic
// state at a cycle boundary is exactly the settled net values, and the
// stimulus generator's position is a closed-form function of the cycle
// index (splitmix64 fast-forward), so taking — or not taking — a
// checkpoint never perturbs the simulation.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"

	"glitchsim/internal/core"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/netlist"
)

// CheckpointVersion is the MeasureCheckpoint format version; resume
// rejects snapshots written by any other version. Version 2 packs the
// net values and the counter as binary (base64 in the JSON). A version
// 1 checkpoint no longer decodes, so a job holding one re-runs from
// cycle zero.
const CheckpointVersion = 2

// ErrStopAtCheckpoint, returned by a CheckpointSink, asks the
// measurement to stop cleanly at the chunk boundary the sink was just
// called for: the partial counter is returned together with a
// *CheckpointedError. This is how a draining daemon bounds its drain
// latency to one chunk instead of gambling on a grace period.
var ErrStopAtCheckpoint = errors.New("glitchsim: stop at checkpoint")

// ErrCheckpointed tags the error a measurement returns after its sink
// requested a stop: the measurement is not failed, it is parked at the
// checkpoint the sink just received. errors.Is(err, ErrCheckpointed)
// matches the concrete *CheckpointedError.
var ErrCheckpointed = errors.New("glitchsim: measurement stopped at a checkpoint")

// ErrCheckpointMismatch tags every resume validation failure: the
// snapshot does not belong to this (circuit, configuration) pair, or
// its payload fails integrity checks. Resuming anyway would produce
// statistics that are not bit-identical to any honest run, so the
// measurement refuses.
var ErrCheckpointMismatch = errors.New("glitchsim: checkpoint does not match the measurement")

// ErrCheckpointUnsupported reports a checkpoint request on a
// measurement the chunked word-parallel path cannot carry: an explicit
// stimulus Source, a single-lane run, or a run of at most one cycle.
// Checkpointing needs the lane-decomposed path because only there is
// the stimulus position a pure function of the cycle index.
var ErrCheckpointUnsupported = errors.New("glitchsim: checkpointing requires a lane-decomposed measurement (no explicit Source, Lanes > 1, Cycles > 1)")

// CheckpointedError reports a measurement stopped at a chunk boundary
// on its sink's request. The partial counter returned alongside covers
// exactly Cycle measured steps.
type CheckpointedError struct {
	// Cycle is the number of completed measured steps (word-parallel
	// cycles, each advancing every active lane by one vector).
	Cycle int
	// Total is the measurement's full step count.
	Total int
}

func (e *CheckpointedError) Error() string {
	return fmt.Sprintf("glitchsim: measurement stopped at checkpoint, cycle %d of %d", e.Cycle, e.Total)
}

// Is reports ErrCheckpointed so errors.Is works without the concrete
// type.
func (e *CheckpointedError) Is(target error) bool { return target == ErrCheckpointed }

// CheckpointMismatchError pinpoints the first field on which a resume
// snapshot disagrees with the measurement it was offered to.
type CheckpointMismatchError struct {
	Field     string
	Want, Got string
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("glitchsim: checkpoint mismatch on %s: checkpoint has %s, measurement wants %s",
		e.Field, e.Got, e.Want)
}

// Is reports ErrCheckpointMismatch so errors.Is works without the
// concrete type.
func (e *CheckpointMismatchError) Is(target error) bool { return target == ErrCheckpointMismatch }

// CheckpointSink receives the measurement checkpoint taken at each
// chunk boundary. The snapshot is freshly allocated and owned by the
// sink. Returning nil continues the measurement; returning
// ErrStopAtCheckpoint stops it cleanly at this boundary (the sink has
// the snapshot, the caller gets the partial counter and a
// *CheckpointedError); any other error aborts the measurement.
type CheckpointSink func(cp *MeasureCheckpoint) error

// MeasureCheckpoint is one measurement's complete resumable state at a
// chunk boundary: the identity of the run (circuit fingerprint and the
// configuration knobs that shape the stimulus and schedule), the packed
// net values of the word-parallel kernel, and the counter snapshot.
// The identity fields stay readable JSON; the net values and the
// counter travel as base64 of their packed binary forms, so a
// checkpoint costs about 20–30 bytes per net, and the JSON round trip
// is exact. An FNV-64a checksum over the identity fields and the packed
// bytes rejects torn or bit-rotted payloads at resume rather than
// resuming into garbage.
type MeasureCheckpoint struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Cycle is the number of completed measured steps at the boundary.
	Cycle int `json:"cycle"`
	// TotalCycles, Lanes, Seed and Warmup pin the lane decomposition:
	// per-lane seeds and quotas are pure functions of (Seed, Lanes,
	// TotalCycles), so equality here means identical streams.
	TotalCycles int    `json:"total_cycles"`
	Lanes       int    `json:"lanes"`
	Seed        uint64 `json:"seed"`
	Warmup      int    `json:"warmup"`
	// DelayDigest is the hex FNV-1a digest of the compiled delay table
	// (sim.DelayTable.Digest); a different delay model changes every
	// waveform, so resume under one is refused.
	DelayDigest string `json:"delay_digest"`
	Inertial    bool   `json:"inertial"`
	// NetState holds the packed settled net values (see packNetState):
	// a bitmap of the nets whose every lane is known, then one 8-byte
	// word per such net and two per other net. JSON carries it base64.
	NetState []byte `json:"net_state"`
	// Counter is the folded statistics snapshot at the boundary. JSON
	// carries its packed form base64 (core.CounterSnapshot.AppendBinary).
	Counter *core.CounterSnapshot `json:"counter"`
	// Checksum is the hex FNV-64a hash of every other field, with
	// NetState and Counter in their packed forms (see checksum).
	Checksum string `json:"checksum"`
}

// checksum hashes the checkpoint's content: the identity fields, the
// packed net values and the counter's packed form, each length-prefixed
// or fixed-width so distinct checkpoints never share a hash input.
func (cp *MeasureCheckpoint) checksum() (string, error) {
	b := make([]byte, 0, 256)
	b = binary.AppendVarint(b, int64(cp.Version))
	b = appendString(b, cp.Fingerprint)
	b = binary.AppendVarint(b, int64(cp.Cycle))
	b = binary.AppendVarint(b, int64(cp.TotalCycles))
	b = binary.AppendVarint(b, int64(cp.Lanes))
	b = binary.AppendUvarint(b, cp.Seed)
	b = binary.AppendVarint(b, int64(cp.Warmup))
	b = appendString(b, cp.DelayDigest)
	b = append(b, boolByte(cp.Inertial))
	b = binary.AppendUvarint(b, uint64(len(cp.NetState)))
	h := fnv.New64a()
	h.Write(b)
	h.Write(cp.NetState)
	if cp.Counter != nil {
		// A leading 1 tells a present counter from an absent one.
		packed, err := cp.Counter.AppendBinary(append(b[:0], 1))
		if err != nil {
			return "", fmt.Errorf("glitchsim: packing checkpoint counter: %w", err)
		}
		h.Write(packed)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// appendString appends s length-prefixed.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// seal stamps the checkpoint's checksum; every checkpoint handed to a
// sink is sealed.
func (cp *MeasureCheckpoint) seal() error {
	sum, err := cp.checksum()
	if err != nil {
		return err
	}
	cp.Checksum = sum
	return nil
}

// Verify recomputes the checkpoint's checksum and compares. It catches
// torn writes and bit rot before any field is trusted; resume calls it
// first.
func (cp *MeasureCheckpoint) Verify() error {
	if cp == nil {
		return &CheckpointMismatchError{Field: "checkpoint", Want: "non-nil", Got: "nil"}
	}
	sum, err := cp.checksum()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCheckpointMismatch, err)
	}
	if sum != cp.Checksum {
		return &CheckpointMismatchError{Field: "checksum", Want: sum, Got: cp.Checksum}
	}
	return nil
}

// matches validates the checkpoint's identity against want, the
// identity of the measurement about to resume from it. maxQ is the
// run's step count (the largest lane quota).
func (cp *MeasureCheckpoint) matches(want *MeasureCheckpoint, maxQ int) error {
	check := func(field, want, got string) error {
		if want != got {
			return &CheckpointMismatchError{Field: field, Want: want, Got: got}
		}
		return nil
	}
	if err := check("version", fmt.Sprint(want.Version), fmt.Sprint(cp.Version)); err != nil {
		return err
	}
	if err := check("fingerprint", want.Fingerprint, cp.Fingerprint); err != nil {
		return err
	}
	if err := check("total_cycles", fmt.Sprint(want.TotalCycles), fmt.Sprint(cp.TotalCycles)); err != nil {
		return err
	}
	if err := check("lanes", fmt.Sprint(want.Lanes), fmt.Sprint(cp.Lanes)); err != nil {
		return err
	}
	if err := check("seed", fmt.Sprint(want.Seed), fmt.Sprint(cp.Seed)); err != nil {
		return err
	}
	if err := check("warmup", fmt.Sprint(want.Warmup), fmt.Sprint(cp.Warmup)); err != nil {
		return err
	}
	if err := check("delay_digest", want.DelayDigest, cp.DelayDigest); err != nil {
		return err
	}
	if err := check("inertial", fmt.Sprint(want.Inertial), fmt.Sprint(cp.Inertial)); err != nil {
		return err
	}
	if cp.Cycle < 0 || cp.Cycle > maxQ {
		return &CheckpointMismatchError{Field: "cycle", Want: fmt.Sprintf("within [0, %d]", maxQ), Got: fmt.Sprint(cp.Cycle)}
	}
	if cp.Counter == nil {
		return &CheckpointMismatchError{Field: "counter", Want: "non-nil", Got: "nil"}
	}
	return nil
}

// packNetState packs kernel net values into the checkpoint's byte form:
// a bitmap whose bit i%8 of byte i/8 marks net i as known in every lane
// (its Zero rail is the complement of its One rail), then, in net
// order, the One rail of each marked net and both rails (Zero, One) of
// every other, as 8 little-endian bytes per rail. A settled
// measurement knows nearly every net, so this is about 8 bytes per net.
func packNetState(vals []logic.W) []byte {
	known := 0
	for _, v := range vals {
		if v.Zero == ^v.One {
			known++
		}
	}
	head := (len(vals) + 7) / 8
	out := make([]byte, head, head+8*known+16*(len(vals)-known))
	for i, v := range vals {
		if v.Zero == ^v.One {
			out[i/8] |= 1 << (i % 8)
			out = binary.LittleEndian.AppendUint64(out, v.One)
		} else {
			out = binary.LittleEndian.AppendUint64(out, v.Zero)
			out = binary.LittleEndian.AppendUint64(out, v.One)
		}
	}
	return out
}

// unpackNetState inverts packNetState for a netlist of numNets nets.
// The bytes come from disk, so the bitmap's padding must be clear and
// the length must equal what the bitmap implies before any word is
// read.
func unpackNetState(b []byte, numNets int) ([]logic.W, error) {
	head := (numNets + 7) / 8
	bad := func() error {
		return &CheckpointMismatchError{Field: "net_state",
			Want: fmt.Sprintf("packed values of %d nets", numNets), Got: fmt.Sprintf("%d bytes", len(b))}
	}
	if len(b) < head || (numNets%8 != 0 && b[head-1]>>(numNets%8) != 0) {
		return nil, bad()
	}
	known := 0
	for _, x := range b[:head] {
		known += bits.OnesCount8(x)
	}
	if len(b) != head+8*known+16*(numNets-known) {
		return nil, bad()
	}
	vals := make([]logic.W, numNets)
	words := b[head:]
	for i := range vals {
		if b[i/8]&(1<<(i%8)) != 0 {
			one := binary.LittleEndian.Uint64(words)
			vals[i] = logic.W{Zero: ^one, One: one}
			words = words[8:]
		} else {
			vals[i] = logic.W{Zero: binary.LittleEndian.Uint64(words), One: binary.LittleEndian.Uint64(words[8:])}
			words = words[16:]
		}
	}
	return vals, nil
}

// delayDigest renders a delay table's digest in the checkpoint's hex
// form.
func delayDigest(dt *sim.DelayTable) string { return fmt.Sprintf("%016x", dt.Digest()) }

// checkpointer takes one measurement's checkpoints and checks its
// resume point. id holds the identity fields every checkpoint of the
// run shares, filled in once per run.
type checkpointer struct {
	id    MeasureCheckpoint
	state []logic.W // kernel-state export buffer, reused across captures
}

func newCheckpointer(fp string, cfg Config, lanes int, dt *sim.DelayTable) *checkpointer {
	return &checkpointer{id: MeasureCheckpoint{
		Version:     CheckpointVersion,
		Fingerprint: fp,
		TotalCycles: cfg.Cycles,
		Lanes:       lanes,
		Seed:        cfg.Seed,
		Warmup:      cfg.Warmup,
		DelayDigest: delayDigest(dt),
		Inertial:    cfg.Inertial,
	}}
}

// capture folds the running measurement's state at a cycle boundary,
// done measured steps in, into a sealed MeasureCheckpoint.
func (k *checkpointer) capture(ws sim.WideKernel, counter *core.WideCounter, done int) (*MeasureCheckpoint, error) {
	snap, err := counter.Snapshot(k.id.Fingerprint)
	if err != nil {
		return nil, err
	}
	k.state = ws.ExportState(k.state[:0])
	cp := k.id
	cp.Cycle, cp.NetState, cp.Counter = done, packNetState(k.state), snap
	if err := cp.seal(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// resume validates cp against the run on c (checksum, identity, cycle
// range, payload shapes, and net values that a kernel settles at: see
// sim.Compiled.Unsettled), restores its counter snapshot into counter
// and returns the kernel net values to import. Every failure is an
// ErrCheckpointMismatch.
func (k *checkpointer) resume(cp *MeasureCheckpoint, counter *core.WideCounter, c *sim.Compiled, maxQ int) ([]logic.W, error) {
	if err := cp.Verify(); err != nil {
		return nil, err
	}
	if err := cp.matches(&k.id, maxQ); err != nil {
		return nil, err
	}
	n := c.Netlist()
	vals, err := unpackNetState(cp.NetState, n.NumNets())
	if err != nil {
		return nil, err
	}
	if net := c.Unsettled(vals); net != netlist.NoNet {
		return nil, fmt.Errorf("%w: net %q holds a value its driver does not settle at", ErrCheckpointMismatch, n.Nets[net].Name)
	}
	if err := counter.Restore(cp.Counter, k.id.Fingerprint); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCheckpointMismatch, err)
	}
	return vals, nil
}
