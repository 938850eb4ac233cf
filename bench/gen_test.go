package main

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/tensor"
)

func TestOpenScheduleIsSeeded(t *testing.T) {
	a := openSchedule(7, 4000, time.Second, 0.5, 32)
	b := openSchedule(7, 4000, time.Second, 0.5, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if c := openSchedule(8, 4000, time.Second, 0.5, 32); reflect.DeepEqual(a, c) {
		t.Fatal("different seed, same schedule")
	}
	if n := len(a); n < 3600 || n > 4400 {
		t.Errorf("%d arrivals in 1 s at 4000/s", n)
	}
	var batch int
	for i, x := range a {
		if i > 0 && x.Due < a[i-1].Due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		if x.Due >= time.Second || x.Example < 0 || x.Example >= 32 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		if x.Batch {
			batch++
		}
	}
	if share := float64(batch) / float64(len(a)); share < 0.45 || share > 0.55 {
		t.Errorf("batch-lane share %.3f, want about 0.5", share)
	}
}

// shuffler answers requests after a random delay, so completions come
// back in an order that differs from run to run, and records what it
// was offered in the order it was offered.
type shuffler struct {
	mu    sync.Mutex
	rng   *rand.Rand
	index map[*tensor.Tensor]int
	sent  []arrival
	reply map[string]*tensor.Tensor
}

func (s *shuffler) InferPriority(_ context.Context, in map[string]*tensor.Tensor, lane serve.Priority) (map[string]*tensor.Tensor, error) {
	s.mu.Lock()
	s.sent = append(s.sent, arrival{Example: s.index[in["x"]], Batch: lane == serve.PriorityBatch})
	d := time.Duration(s.rng.Intn(400)) * time.Microsecond
	s.mu.Unlock()
	time.Sleep(d)
	return s.reply, nil
}

// What the open loop offers — which example, on which lane, in which
// order — is the schedule and nothing else, however the answers come
// back.
func TestOpenLoopIndependentOfCompletionOrder(t *testing.T) {
	const examples = 8
	sched := openSchedule(3, 2000, 150*time.Millisecond, 0.5, examples)
	reply := map[string]*tensor.Tensor{"y": tensor.Scalar(1)}
	var ins []map[string]*tensor.Tensor
	var refs []map[string]*tensor.Tensor
	index := map[*tensor.Tensor]int{}
	for i := 0; i < examples; i++ {
		x := tensor.Scalar(float32(i))
		index[x] = i
		ins = append(ins, map[string]*tensor.Tensor{"x": x})
		refs = append(refs, reply)
	}
	for _, delaySeed := range []int64{1, 2} {
		eng := &shuffler{rng: rand.New(rand.NewSource(delaySeed)), index: index, reply: reply}
		res, late, dropped, _ := openLoop(eng, ins, refs, sched, nil)
		if dropped != 0 || len(res) != len(sched) || len(late) != len(sched) {
			t.Fatalf("dropped %d, %d results, %d lateness samples for %d arrivals", dropped, len(res), len(late), len(sched))
		}
		for i, r := range res {
			if r.out != opOK {
				t.Fatalf("arrival %d: outcome %d", i, r.out)
			}
		}
		if len(eng.sent) != len(sched) {
			t.Fatalf("offered %d of %d arrivals", len(eng.sent), len(sched))
		}
		// Requests are goroutines; two due within the same scheduler
		// tick may reach the engine in either order, so compare as
		// multisets per lane and example.
		count := func(as []arrival) map[arrival]int {
			m := map[arrival]int{}
			for _, a := range as {
				m[arrival{Example: a.Example, Batch: a.Batch}]++
			}
			return m
		}
		if !reflect.DeepEqual(count(eng.sent), count(sched)) {
			t.Fatalf("delay seed %d: offered traffic differs from the schedule", delaySeed)
		}
	}
}
