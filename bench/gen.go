package main

import (
	"math/rand"
	"time"
)

// arrival is one scheduled request of the open loop: when it is due
// (offset from the window start), its admission lane and which example
// it carries.
type arrival struct {
	Due     time.Duration
	Batch   bool // batch lane; interactive otherwise
	Example int
}

// openSchedule draws the whole arrival schedule of an open-loop window
// up front from one seeded generator: Poisson arrivals (exponential
// gaps) at rate per second, lanes split by batchShare, examples chosen
// uniformly. Drawing it before the window starts is what makes the
// offered traffic independent of how fast — or in which order — the
// engine answers.
func openSchedule(seed int64, rate float64, window time.Duration, batchShare float64, examples int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, 0, int(rate*window.Seconds()*1.1)+16)
	var due time.Duration
	for {
		due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if due >= window {
			return out
		}
		out = append(out, arrival{
			Due:     due,
			Batch:   rng.Float64() < batchShare,
			Example: rng.Intn(examples),
		})
	}
}
