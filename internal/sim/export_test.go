package sim

import "glitchsim/internal/logic"

// ScheduleOf returns the schedule a wide kernel runs.
func ScheduleOf(k WideKernel) *Schedule { return k.(*scheduleKernel).sc }

// NewScheduleInt32 is NewSchedule with 32-bit slot indices whatever the
// schedule's size.
func NewScheduleInt32(c *Compiled, opts Options) *Schedule { return newSchedule(c, opts, false) }

// SetState overwrites a scalar simulator's net values with vals (one per
// net) and re-derives its flip-flop samples from their Q nets, as
// WideKernel.ImportState does for a lane.
func SetState(s *Simulator, vals []logic.V) {
	copy(s.values, vals)
	for i, q := range s.c.dffQ {
		s.ffQ[i] = vals[q]
	}
}

// SlotBytes returns the bytes per slot a wide kernel's steps read
// and write in its current form (8 in the one-rail and reset forms, 16
// in the three-valued one) and the bytes per slot it holds: 8 until a
// three-valued step first needs the zero rail, 16 after.
func SlotBytes(k WideKernel) (step, held int) {
	s := k.(*scheduleKernel)
	step, held = 8, 8
	if s.form == threeValued {
		step = 16
	}
	if s.sl.zero != nil {
		held = 16
	}
	return step, held
}
