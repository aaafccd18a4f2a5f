package glitchsim

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"glitchsim/internal/delay"
	"glitchsim/netlist"
)

// randomPinDelays is a deterministic per-cell, per-pin delay model with
// delays in [0, spread], zero delays included: every pin may differ, and
// zero-delay batches interleave with positive delays.
func randomPinDelays(seed uint64, spread int) delay.Model {
	return delay.Func{
		F: func(c *netlist.Cell, pin int) int {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d|%s|%d", seed, c.Name, pin)
			return int(h.Sum64() % uint64(spread+1))
		},
		N: fmt.Sprintf("random(%d,%d)", seed, spread),
	}
}

// TestWideStatsPinned pins the statistics of lane-decomposed
// measurements under inertial and zero-delay models — the runs that
// once had a lane-masked event kernel of their own — at the values that
// kernel measured: each configuration's Activity totals, and an FNV-1a
// hash over MeasureDetailed's per-net statistics (500 cycles, seed 1).
func TestWideStatsPinned(t *testing.T) {
	for _, tc := range []struct {
		circuit  string
		dm       delay.Model
		inertial bool
		want     Activity
		hash     uint64
	}{
		{"array8", delay.FullAdderRatio(2, 1), true, Activity{"array8", 500, 68281, 32717, 35564, 17782, 34100}, 0x6005bc757ba8bbf1},
		{"dirdet8r", delay.Typical(), true, Activity{"dirdet8r", 500, 270810, 108038, 162772, 81386, 135514}, 0xbbdcb406a473594d},
		{"rca16", delay.FullAdderRatio(0, 1), false, Activity{"rca16", 500, 14680, 7876, 6804, 3402, 7320}, 0xb4b872e7eb3c315a},
		{"booth8", delay.FullAdderRatio(0, 5), true, Activity{"booth8", 500, 165306, 69488, 95818, 47909, 82355}, 0x522c2df4f37369c3},
		{"array16", delay.Zero(), false, Activity{"array16", 500, 145067, 145067, 0, 0, 72186}, 0xe2e38a9f7426559b},
		{"wallace8", randomPinDelays(8, 4), true, Activity{"wallace8", 500, 59692, 36548, 23144, 11572, 29800}, 0xcc164781dbc11b3b},
	} {
		name := fmt.Sprintf("%s/%s/inertial=%v", tc.circuit, tc.dm.Name(), tc.inertial)
		req := MeasureRequest{Circuit: CircuitNamed(tc.circuit), Config: Config{Cycles: 500, Seed: 1, Delay: tc.dm, Inertial: tc.inertial}}
		e := NewEngine()
		if k, err := e.SelectedKernel(req); err != nil || k != KernelWideEvent {
			t.Fatalf("%s: kernel %q (%v), want %q", name, k, err, KernelWideEvent)
		}
		counter, err := e.MeasureDetailed(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := summarize(tc.circuit, counter)
		h := fnv.New64a()
		var buf [8]byte
		for i := range counter.Netlist().NumNets() {
			st := counter.Stats(netlist.NetID(i))
			for _, v := range []uint64{st.Transitions, st.Useful, st.Useless, st.Glitches, st.Rising, uint64(st.MaxPerCycle)} {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
		}
		if got != tc.want || h.Sum64() != tc.hash {
			t.Errorf("%s: %+v, net-stats hash %#x; want %+v, %#x", name, got, h.Sum64(), tc.want, tc.hash)
		}
	}
}
