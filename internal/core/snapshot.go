package core

// WideCounter snapshot/restore: the serialization layer of measurement
// checkpointing. A snapshot captures the accumulated classified
// statistics at a cycle boundary — never mid-cycle, where per-cycle
// parity state would make the numbers meaningless — tagged with a
// format version and the netlist fingerprint so a restore onto the
// wrong circuit (or a torn/corrupt payload) is rejected instead of
// silently producing garbage statistics.
//
// Restore re-derives nothing: the parity rule's per-cycle state is
// empty at a boundary, so the accumulated NetStats plus the cycle
// count ARE the counter. That is what makes interrupted+resumed runs
// bit-identical to uninterrupted ones.
//
// On disk a snapshot is its packed binary form (AppendBinary), carried
// in JSON as one base64 string (MarshalText): a checkpoint costs a few
// bytes per active net instead of a JSON object per net.

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// SnapshotVersion is the counter snapshot format version. Restore
// rejects snapshots written by any other version. Version 2 is the
// packed form; version 1 snapshots (a JSON object) no longer decode.
const SnapshotVersion = 2

// ErrBadSnapshot is wrapped by every snapshot validation failure:
// version skew, fingerprint mismatch, out-of-range nets, statistics
// that violate the parity-rule invariants (a corruption tell), or a
// packed payload that does not decode.
var ErrBadSnapshot = errors.New("core: invalid counter snapshot")

// NetStatsEntry is one net's accumulated statistics in snapshot form.
// Only nets with activity are recorded.
type NetStatsEntry struct {
	Net         int
	Transitions uint64
	Useful      uint64
	Useless     uint64
	Glitches    uint64
	Rising      uint64
	MaxPerCycle uint32
}

// CounterSnapshot is the versioned, fingerprint-tagged serialization of
// a WideCounter at a cycle boundary. In memory it is plain
// data. Its JSON form is one base64 string (MarshalText) of the packed
// form (AppendBinary), which leaves out Useful and Glitches: the parity
// rule derives them (Useful = Transitions − Useless, Glitches =
// Useless/2) for every snapshot a counter writes, so the round trip is
// exact.
type CounterSnapshot struct {
	Version     int
	Fingerprint string
	// Cycles is the classified lane-cycle count, matching Counter.Cycles
	// after the fold.
	Cycles int
	// Monitored lists the monitored net IDs, ascending.
	Monitored []int
	// Stats holds the per-net statistics of every net with activity,
	// ascending by net.
	Stats []NetStatsEntry
}

// validate checks a snapshot against the restoring counter's netlist
// (fingerprint and net count) and the parity-rule invariants every
// honestly accumulated counter satisfies: Useful+Useless == Transitions,
// Useless is even (each cycle contributes an even useless count), and
// Glitches == Useless/2. A snapshot failing any of these was corrupted
// or hand-forged, not written by Snapshot.
func (s *CounterSnapshot) validate(fp string, numNets int) error {
	if s == nil {
		return fmt.Errorf("%w: nil snapshot", ErrBadSnapshot)
	}
	if s.Version != SnapshotVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadSnapshot, s.Version, SnapshotVersion)
	}
	if s.Fingerprint != fp {
		return fmt.Errorf("%w: fingerprint %s does not match netlist %s", ErrBadSnapshot, s.Fingerprint, fp)
	}
	if s.Cycles < 0 {
		return fmt.Errorf("%w: negative cycle count %d", ErrBadSnapshot, s.Cycles)
	}
	for _, id := range s.Monitored {
		if id < 0 || id >= numNets {
			return fmt.Errorf("%w: monitored net %d outside [0, %d)", ErrBadSnapshot, id, numNets)
		}
	}
	for i := range s.Stats {
		e := &s.Stats[i]
		if e.Net < 0 || e.Net >= numNets {
			return fmt.Errorf("%w: net %d outside [0, %d)", ErrBadSnapshot, e.Net, numNets)
		}
		if e.Useful+e.Useless != e.Transitions {
			return fmt.Errorf("%w: net %d has useful %d + useless %d != transitions %d",
				ErrBadSnapshot, e.Net, e.Useful, e.Useless, e.Transitions)
		}
		if e.Useless%2 != 0 {
			return fmt.Errorf("%w: net %d has odd useless count %d", ErrBadSnapshot, e.Net, e.Useless)
		}
		if e.Glitches != e.Useless/2 {
			return fmt.Errorf("%w: net %d has %d glitches, parity rule requires %d",
				ErrBadSnapshot, e.Net, e.Glitches, e.Useless/2)
		}
		if e.Rising > e.Transitions {
			return fmt.Errorf("%w: net %d has %d rising > %d transitions",
				ErrBadSnapshot, e.Net, e.Rising, e.Transitions)
		}
	}
	return nil
}

// Snapshot serializes the wide counter's accumulated lane-summed
// statistics, tagged with fp, the fingerprint of the counter's netlist
// (the caller holds it, so a run taking many snapshots hashes its
// netlist once). It fails if the counter is mid-cycle (a cycle counted
// since the last OnCycleEnd): a consistent checkpoint exists only at
// cycle boundaries.
func (c *WideCounter) Snapshot(fp string) (*CounterSnapshot, error) {
	if c.open {
		return nil, fmt.Errorf("core: cannot snapshot a wide counter mid-cycle")
	}
	monitored, active := 0, 0
	for i, in := range c.include {
		if in {
			monitored++
		}
		if c.stats[i] != (NetStats{}) {
			active++
		}
	}
	s := &CounterSnapshot{
		Version: SnapshotVersion, Fingerprint: fp, Cycles: c.cycles,
		Monitored: make([]int, 0, monitored),
		Stats:     make([]NetStatsEntry, 0, active),
	}
	for i, in := range c.include {
		if in {
			s.Monitored = append(s.Monitored, i)
		}
	}
	for i := range c.stats {
		st := &c.stats[i]
		if *st == (NetStats{}) {
			continue
		}
		s.Stats = append(s.Stats, NetStatsEntry{
			Net:         i,
			Transitions: st.Transitions,
			Useful:      st.Useful,
			Useless:     st.Useless,
			Glitches:    st.Glitches,
			Rising:      st.Rising,
			MaxPerCycle: st.MaxPerCycle,
		})
	}
	return s, nil
}

// Restore overwrites the wide counter's accumulated statistics and
// monitored set with a snapshot's, after validating it against fp, the
// fingerprint of the counter's netlist, and the netlist's net count.
// The lane mask is untouched. On error the counter is left unchanged.
func (c *WideCounter) Restore(s *CounterSnapshot, fp string) error {
	if err := s.validate(fp, c.n.NumNets()); err != nil {
		return err
	}
	if c.open {
		return fmt.Errorf("core: cannot restore into a wide counter mid-cycle")
	}
	clear(c.include)
	for _, id := range s.Monitored {
		c.include[id] = true
	}
	clear(c.stats)
	for i := range s.Stats {
		e := &s.Stats[i]
		c.stats[e.Net] = NetStats{
			Transitions: e.Transitions,
			Useful:      e.Useful,
			Useless:     e.Useless,
			Glitches:    e.Glitches,
			Rising:      e.Rising,
			MaxPerCycle: e.MaxPerCycle,
		}
	}
	c.cycles = s.Cycles
	return nil
}

// AppendBinary appends the snapshot's packed form to b: the version,
// the fingerprint (length-prefixed), the cycle count, the monitored
// set, then one record per active net — Transitions, Useless, Rising
// and MaxPerCycle — all as uvarints. Net IDs are stored as gaps from
// the previous ID, so both lists must ascend strictly, as a counter
// writes them. A snapshot the packed form cannot carry exactly (a
// negative count, IDs out of order, statistics off the parity rule's
// derivations) fails with ErrBadSnapshot.
func (s *CounterSnapshot) AppendBinary(b []byte) ([]byte, error) {
	if s.Version < 0 || s.Cycles < 0 {
		return nil, fmt.Errorf("%w: negative version %d or cycle count %d", ErrBadSnapshot, s.Version, s.Cycles)
	}
	// A typical size, so the buffer grows once: a byte or two per
	// monitored net, about ten per active one.
	b = slices.Grow(b, 32+len(s.Fingerprint)+2*len(s.Monitored)+12*len(s.Stats))
	b = binary.AppendUvarint(b, uint64(s.Version))
	b = binary.AppendUvarint(b, uint64(len(s.Fingerprint)))
	b = append(b, s.Fingerprint...)
	b = binary.AppendUvarint(b, uint64(s.Cycles))
	b = binary.AppendUvarint(b, uint64(len(s.Monitored)))
	prev := -1
	for _, id := range s.Monitored {
		if id <= prev {
			return nil, fmt.Errorf("%w: monitored net %d does not ascend", ErrBadSnapshot, id)
		}
		b = binary.AppendUvarint(b, uint64(id-prev-1))
		prev = id
	}
	b = binary.AppendUvarint(b, uint64(len(s.Stats)))
	prev = -1
	for i := range s.Stats {
		e := &s.Stats[i]
		if e.Net <= prev {
			return nil, fmt.Errorf("%w: net %d does not ascend", ErrBadSnapshot, e.Net)
		}
		if e.Useless > e.Transitions || e.Useful != e.Transitions-e.Useless || e.Glitches != e.Useless/2 {
			return nil, fmt.Errorf("%w: net %d statistics break the parity rule", ErrBadSnapshot, e.Net)
		}
		b = binary.AppendUvarint(b, uint64(e.Net-prev-1))
		b = binary.AppendUvarint(b, e.Transitions)
		b = binary.AppendUvarint(b, e.Useless)
		b = binary.AppendUvarint(b, e.Rising)
		b = binary.AppendUvarint(b, uint64(e.MaxPerCycle))
		prev = e.Net
	}
	return b, nil
}

// UnmarshalBinary decodes AppendBinary's packed form into s. Every
// count and length is checked against the bytes that remain before
// anything is allocated or indexed with it, so a truncated or forged
// payload fails with ErrBadSnapshot instead of panicking or allocating
// without bound. Range checks against a netlist are Restore's.
func (s *CounterSnapshot) UnmarshalBinary(data []byte) error {
	r := packedReader{b: data}
	out := CounterSnapshot{Version: r.int(math.MaxInt)}
	out.Fingerprint = string(r.bytes(r.count(1)))
	out.Cycles = r.int(math.MaxInt)
	out.Monitored = make([]int, r.count(1))
	prev := -1
	for i := range out.Monitored {
		prev = r.nextNet(prev)
		out.Monitored[i] = prev
	}
	// A stats record is at least five one-byte uvarints.
	out.Stats = make([]NetStatsEntry, r.count(5))
	prev = -1
	for i := range out.Stats {
		prev = r.nextNet(prev)
		e := NetStatsEntry{Net: prev}
		e.Transitions = r.uvarint()
		e.Useless = r.uvarint()
		e.Rising = r.uvarint()
		e.MaxPerCycle = uint32(r.int(math.MaxUint32))
		if r.err == nil && e.Useless > e.Transitions {
			r.err = fmt.Errorf("net %d has useless %d > transitions %d", e.Net, e.Useless, e.Transitions)
		}
		e.Useful, e.Glitches = e.Transitions-e.Useless, e.Useless/2
		out.Stats[i] = e
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("%w: packed form: %v", ErrBadSnapshot, r.err)
	}
	*s = out
	return nil
}

// MarshalText encodes the snapshot as the base64 of its packed form,
// which encoding/json writes as one JSON string. (A json.Marshaler's
// output would be re-scanned as JSON on every encode.)
func (s CounterSnapshot) MarshalText() ([]byte, error) {
	packed, err := s.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	return base64.StdEncoding.AppendEncode(make([]byte, 0, base64.StdEncoding.EncodedLen(len(packed))), packed), nil
}

// UnmarshalText decodes MarshalText's base64. In JSON any value but a
// string, such as the object a version 1 snapshot was, fails to decode.
func (s *CounterSnapshot) UnmarshalText(text []byte) error {
	packed, err := base64.StdEncoding.AppendDecode(nil, text)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return s.UnmarshalBinary(packed)
}

// packedReader reads AppendBinary's fields in order; the first failure
// sticks in err and turns every later read into a zero.
type packedReader struct {
	b   []byte
	err error
}

func (r *packedReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errors.New("truncated or overlong uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a uvarint that must not exceed limit.
func (r *packedReader) int(limit uint64) int {
	v := r.uvarint()
	if r.err == nil && v > limit {
		r.err = fmt.Errorf("value %d out of range", v)
		return 0
	}
	return int(v)
}

// count reads a length prefix of items at least minSize bytes long each,
// and rejects it unless that many items fit in the bytes that remain.
func (r *packedReader) count(minSize int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.b)/minSize) {
		r.err = fmt.Errorf("count %d exceeds the %d bytes left", v, len(r.b))
		return 0
	}
	return int(v)
}

// bytes returns the next n bytes (n was bounded by count).
func (r *packedReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// nextNet reads one gap-coded net ID following prev.
func (r *packedReader) nextNet(prev int) int {
	id := prev + 1 + r.int(math.MaxInt32)
	if r.err == nil && id > math.MaxInt32 {
		r.err = fmt.Errorf("net %d out of range", id)
	}
	return id
}
