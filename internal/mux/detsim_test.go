package mux

// Deterministic model check for the scheduler, in the detsim style
// (run by the CI detsim job, seed via DETSIM_SEED): a seeded surge of
// control and data frames from a population of clients is stepped
// through enqueue/dequeue by hand — no goroutines — and two properties
// are asserted on every step:
//
//  1. Priority bound: no control-plane frame is ever queued behind more
//     than Workers data frames — the number of data dispatches started
//     between a control frame's enqueue and its dequeue never exceeds
//     the worker count (with strict priority it is exactly the jobs
//     already executing; nothing new may overtake).
//  2. Shed determinism: replaying the same seed reproduces the same
//     shed verdicts — same arrival indices, same RetryAfter millis.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"scalla/internal/proto"
)

// muxDetsimSeed resolves the model-check seed (DETSIM_SEED, default 1).
func muxDetsimSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("DETSIM_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("DETSIM_SEED=%q is not an integer: %v", s, err)
	}
	return v
}

// shedEvent is one recorded shed verdict: which arrival and what hint.
type shedEvent struct {
	step   int
	millis uint32
}

// runSchedSurge drives one seeded surge through a manual scheduler and
// returns the shed trace. The surge keeps up to Workers jobs "running";
// each step either delivers a new frame from a random client (mostly
// bulk reads, sometimes control pings), completes a running job, or
// lets a worker pull the next runnable one.
func runSchedSurge(t *testing.T, seed int64, steps int) []shedEvent {
	t.Helper()
	const workers = 4
	s := newScheduler(SchedConfig{
		Workers:          workers,
		QueueLimit:       64,
		RetryAfterMillis: 100,
		Seed:             seed,
	})
	rng := rand.New(rand.NewSource(seed))
	clients := make([]*schedClient, 24)
	for i := range clients {
		clients[i] = s.register(nil, nil, nil)
	}

	var (
		trace         []shedEvent
		running       []job
		dataStarts    int                // data dispatches started so far
		ctlEnqueuedAt = map[uint32]int{} // pending control sid -> dataStarts at enqueue
		nextSid       uint32
	)
	pull := func(step int) {
		if len(running) >= workers {
			return
		}
		s.mu.Lock()
		j, ok := s.nextLocked()
		s.mu.Unlock()
		if !ok {
			return
		}
		if j.lane == LaneData {
			dataStarts++
		} else {
			started, known := ctlEnqueuedAt[j.sid]
			if !known {
				t.Fatalf("step %d: dequeued untracked control frame sid=%d", step, j.sid)
			}
			if behind := dataStarts - started; behind > workers {
				t.Fatalf("step %d (seed %d): control frame sid=%d queued behind %d data frames, limit %d",
					step, seed, j.sid, behind, workers)
			}
			delete(ctlEnqueuedAt, j.sid)
		}
		running = append(running, j)
	}
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(10); {
		case r < 5: // arrival
			c := clients[rng.Intn(len(clients))]
			sid := nextSid
			nextSid++
			var m proto.Message
			ctl := rng.Intn(8) == 0
			if ctl {
				m = proto.Ping{}
			} else {
				m = proto.Read{FH: 1, N: uint32(rng.Intn(4)) * 32 << 10}
			}
			shedded, millis := s.enqueue(c, m, sid, nil)
			if shedded {
				if ctl {
					t.Fatalf("step %d (seed %d): control frame shed", step, seed)
				}
				trace = append(trace, shedEvent{step: step, millis: millis})
			} else if ctl {
				ctlEnqueuedAt[sid] = dataStarts
			}
		case r < 8: // a worker pulls
			pull(step)
		default: // a running job completes
			if len(running) > 0 {
				i := rng.Intn(len(running))
				j := running[i]
				running = append(running[:i], running[i+1:]...)
				s.finish(j)
			}
		}
	}
	// Drain: every admitted control frame must still get out ahead of
	// the backlog.
	for {
		for len(running) > 0 {
			j := running[0]
			running = running[1:]
			s.finish(j)
		}
		s.mu.Lock()
		j, ok := s.nextLocked()
		s.mu.Unlock()
		if !ok {
			break
		}
		if j.lane == LaneControl {
			delete(ctlEnqueuedAt, j.sid)
		} else {
			dataStarts++
		}
		running = append(running, j)
	}
	if len(ctlEnqueuedAt) != 0 {
		t.Fatalf("seed %d: %d admitted control frames never dispatched", seed, len(ctlEnqueuedAt))
	}
	if st := s.Stats(); int64(len(trace)) != st.Shed {
		t.Fatalf("seed %d: trace has %d sheds, scheduler counted %d", seed, len(trace), st.Shed)
	}
	return trace
}

// TestDetsimSchedSurgeInvariants runs the seeded surge model check
// across a small seed sweep: the priority bound holds on every step and
// shed verdicts are byte-identical across a replay of the same seed.
func TestDetsimSchedSurgeInvariants(t *testing.T) {
	base := muxDetsimSeed(t)
	for i := int64(0); i < 4; i++ {
		seed := base + i
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			first := runSchedSurge(t, seed, 4000)
			again := runSchedSurge(t, seed, 4000)
			if len(first) == 0 {
				t.Fatalf("seed %d: surge produced no sheds; model not exercising the queue limit", seed)
			}
			if len(first) != len(again) {
				t.Fatalf("seed %d: replay shed %d times vs %d", seed, len(again), len(first))
			}
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("seed %d: shed %d differs across replay: %+v vs %+v", seed, i, first[i], again[i])
				}
			}
		})
	}
}
