package sim

// ScheduleOf returns the schedule a wide kernel runs, or nil when
// NewWideKernel routed its options to the event kernel.
func ScheduleOf(k WideKernel) *Schedule {
	if s, ok := k.(*scheduleKernel); ok {
		return s.sc
	}
	return nil
}

// NewScheduleInt32 is NewSchedule with 32-bit slot indices whatever the
// schedule's size.
func NewScheduleInt32(c *Compiled, dt *DelayTable) *Schedule { return newSchedule(c, dt, false) }

// SlotBytes returns the bytes per slot a schedule kernel's steps read
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
