package mux

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalla/internal/proto"
	"scalla/internal/transport"
)

// fairnessService is the mean per-request service time. 3 ms keeps
// scheduler queueing dominant over goroutine-wakeup noise, which on a
// loaded single-core -race run costs each reply a millisecond or more
// regardless of what the scheduler did. Each request actually sleeps
// 1.5–4.5 ms (seeded per stream ID) so worker completions stay
// staggered: on a single P the runtime coalesces identical sleep
// timers, and synchronized workers would add a spurious half-batch
// (1.5 ms) to every victim op that no real deployment sees.
const fairnessService = 3 * time.Millisecond

func fairnessSleep(sid uint32) {
	spread := fairnessService / 8 * time.Duration(sid%8) // 0..2.6ms
	time.Sleep(fairnessService/2 + spread)
}

// fairnessServer serves every connection through one Face whose
// handler has a fixed mean service time per request, so capacity is
// workers/fairnessService and contention effects dominate measurement
// noise. The returned func closes it.
func fairnessServer(t *testing.T, net transport.Network, sched SchedConfig) func() {
	t.Helper()
	lis, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFace(FaceConfig{
		Sched: sched,
		NewConn: func() (Handler, func()) {
			return func(m proto.Message, r Responder) proto.Message {
				fairnessSleep(r.Stream())
				return proto.StatOK{Exists: true}
			}, nil
		},
	})
	go f.Serve(lis)
	return f.Close
}

// victimRate runs one lock-step client for the window and returns its
// completed ops/s.
func victimRate(t *testing.T, net transport.Network, window time.Duration) float64 {
	t.Helper()
	mc, err := Dial(net, "srv", Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	deadline := time.Now().Add(window)
	ops := 0
	start := time.Now()
	for time.Now().Before(deadline) {
		reply, err := mc.Call(proto.Stat{Path: "/victim"}, 10*time.Second)
		if err != nil {
			t.Fatalf("victim call: %v", err)
		}
		if _, ok := reply.(proto.StatOK); !ok {
			t.Fatalf("victim got %#v", reply)
		}
		ops++
	}
	return float64(ops) / time.Since(start).Seconds()
}

// TestSchedFairness32GreedyVs1Victim is the fairness acceptance test
// (ISSUE 8): 32 greedy clients, each keeping 8 pipelined streams in
// flight, share one scheduler with a single lock-step victim. DRR must
// keep the victim's ops/s within 2× of its uncontended rate, and every
// greedy stream must still complete (no worker deadlock). Run under
// -race in CI.
func TestSchedFairness32GreedyVs1Victim(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	stop := fairnessServer(t, net, SchedConfig{Workers: 8, QueueLimit: 2048})
	defer stop()

	uncontended := victimRate(t, net, 300*time.Millisecond)
	if uncontended < 50 {
		t.Skipf("host too slow for a timing assertion: uncontended victim at %.0f ops/s", uncontended)
	}

	// Flood: 32 greedy clients × 8 concurrent streams of 64 KiB-cost
	// reads, running until told to stop.
	var (
		stopFlood atomic.Bool
		greedyOps atomic.Int64
		wg        sync.WaitGroup
	)
	for g := 0; g < 32; g++ {
		mc, err := Dial(net, "srv", Options{MaxInFlight: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer mc.Close()
		for s := 0; s < 8; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stopFlood.Load() {
					if _, err := mc.Call(proto.Read{FH: 1, N: 64 << 10}, 30*time.Second); err != nil {
						return
					}
					greedyOps.Add(1)
				}
			}()
		}
	}
	// Let the backlog form, then measure the victim under surge.
	time.Sleep(200 * time.Millisecond)
	contended := victimRate(t, net, 500*time.Millisecond)
	stopFlood.Store(true)
	wg.Wait()

	t.Logf("victim: uncontended %.0f ops/s, under 256 greedy streams %.0f ops/s; greedy completed %d ops",
		uncontended, contended, greedyOps.Load())
	if contended < uncontended/2 {
		t.Fatalf("victim starved: %.0f ops/s under surge vs %.0f uncontended (limit: within 2×)",
			contended, uncontended)
	}
	if greedyOps.Load() == 0 {
		t.Fatal("greedy clients made no progress; scheduler deadlocked the bulk lane")
	}
}
