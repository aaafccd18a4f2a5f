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
