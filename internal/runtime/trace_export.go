package runtime

import (
	"fmt"
	"io"
	"time"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// Chrome-trace export: the paper's Related Work describes EEG,
// Google's internal tool that "can reconstruct the dynamic execution
// timeline of TensorFlow operations" but was never released. This is
// the equivalent for this runtime: events map onto the lanes of a
// Chrome trace-event document (chrome://tracing, Perfetto; encoded by
// telemetry.WriteChromeLanes) so a session's timeline can be
// inspected visually — by operation class on the simulated clock, or
// by inter-op worker on the wall clock.

// WriteChromeTrace serializes events as a Chrome-trace document. Each
// operation class gets its own thread lane; timestamps are the
// session's simulated timeline.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return writeLanes(w, events,
		func(tid int) string { c := graph.OpClass(tid); return c.Letter() + ": " + c.String() },
		func(e Event) (int, time.Duration, time.Duration) { return int(e.Class), e.Start, e.Dur })
}

// WriteChromeTraceWall serializes events on the measured wall-clock
// timeline with one thread lane per inter-op worker (Event.Worker),
// using Event.WallStart/Event.Wall instead of the simulated clock —
// the inspection view for real parallel runs, where lane occupancy
// shows the achieved (not modeled) inter-op overlap. Events without a
// wall start (traced before this field existed, or synthetic) are
// skipped.
func WriteChromeTraceWall(w io.Writer, events []Event) error {
	var t0 time.Time
	var timed []Event
	for _, e := range events {
		if e.WallStart.IsZero() {
			continue
		}
		if t0.IsZero() || e.WallStart.Before(t0) {
			t0 = e.WallStart
		}
		timed = append(timed, e)
	}
	return writeLanes(w, timed,
		func(tid int) string { return fmt.Sprintf("worker %d", tid) },
		func(e Event) (int, time.Duration, time.Duration) { return e.Worker, e.WallStart.Sub(t0), e.Wall })
}

// writeLanes puts every event on the lane, start and duration place
// assigns it.
func writeLanes(w io.Writer, events []Event, laneName func(tid int) string, place func(Event) (tid int, start, dur time.Duration)) error {
	return telemetry.WriteChromeLanes(w, laneName, len(events),
		func(i int) (int, string, string, time.Duration, time.Duration, map[string]string) {
			e := events[i]
			tid, start, dur := place(e)
			return tid, e.Op, e.Class.String(), start, dur, map[string]string{"node": e.Node.String()}
		})
}
