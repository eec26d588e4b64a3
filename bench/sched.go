package bench

import "time"

// Schedule is a fixed-rate open-loop arrival plan for one of several
// interleaved streams: operation k is due Phase + k·Period after the
// stream's origin, whatever happened to operation k-1.
type Schedule struct {
	Period time.Duration
	Phase  time.Duration
}

// NewSchedule splits a total rate (operations per second) evenly over
// streams generators and returns generator stream's plan. The phases
// interleave the generators so the combined arrivals are evenly spaced.
func NewSchedule(rate float64, streams, stream int) Schedule {
	period := time.Duration(float64(time.Second) * float64(streams) / rate)
	return Schedule{Period: period, Phase: period * time.Duration(stream) / time.Duration(streams)}
}

// Due is operation k's due time as an offset from the origin.
func (s Schedule) Due(k int) time.Duration {
	return s.Phase + time.Duration(k)*s.Period
}

// Lateness is how far behind its plan the generator was when it got to
// send an operation: zero when on time or early, never negative.
func Lateness(due, sentAt time.Duration) time.Duration {
	if sentAt <= due {
		return 0
	}
	return sentAt - due
}
