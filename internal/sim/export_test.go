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
// and write in its current form: 8 in the one-rail form, 16 in the
// three-valued one.
func SlotBytes(k WideKernel) int {
	if k.(*scheduleKernel).oneRail {
		return 8
	}
	return 16
}
