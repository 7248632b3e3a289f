package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opKind names what one generated operation does.
type opKind uint8

const (
	// opOpenRead opens a file, reads its first bytes and closes it.
	opOpenRead opKind = iota
	// opStat stats a file.
	opStat
)

// op is one generated operation: what to do to which file, and whether
// a second opener opens it at the same moment.
type op struct {
	kind opKind
	file int
	join bool
}

// jobStats is what the jobs of one measured phase observed. Timings are
// raw samples; counts are operations.
type jobStats struct {
	start             time.Time // of the phase
	open, read, opLat samples
	attempted, failed int
	bytesRead         int64
	bytesWritten      int64
	perSec            []secStat // by whole seconds since start
	spans             []opSpan
}

// secStat is what completed in one second of a phase.
type secStat struct {
	ops, good int // good: within the workload's latency limit
	bytesRead int64
}

// now returns the entry of the current second; stats kept outside a
// phase start counting at their first op.
func (s *jobStats) now() *secStat {
	if s.start.IsZero() {
		s.start = time.Now()
	}
	i := int(time.Since(s.start) / time.Second)
	for len(s.perSec) <= i {
		s.perSec = append(s.perSec, secStat{})
	}
	return &s.perSec[i]
}

// addRead counts n payload bytes read.
func (s *jobStats) addRead(n int) {
	s.bytesRead += int64(n)
	s.now().bytesRead += int64(n)
}

func (s *jobStats) merge(o *jobStats) {
	s.open = append(s.open, o.open...)
	s.read = append(s.read, o.read...)
	s.opLat = append(s.opLat, o.opLat...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.bytesRead += o.bytesRead
	s.bytesWritten += o.bytesWritten
	for i, sec := range o.perSec {
		if i == len(s.perSec) {
			s.perSec = append(s.perSec, secStat{})
		}
		s.perSec[i].ops += sec.ops
		s.perSec[i].good += sec.good
		s.perSec[i].bytesRead += sec.bytesRead
	}
	s.spans = append(s.spans, o.spans...)
}

// perSecond returns the median over the phase's whole seconds of what
// get counts in one, or the total over the elapsed time when the phase
// lasted less than a second. A rate is reported as a median so that
// one stalled second does not move it.
func (s *jobStats) perSecond(elapsed time.Duration, get func(secStat) float64) float64 {
	n := min(int(elapsed/time.Second), len(s.perSec))
	if n == 0 {
		total := 0.0
		for _, sec := range s.perSec {
			total += get(sec)
		}
		return total / elapsed.Seconds()
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = get(s.perSec[i])
	}
	return median(vals)
}

// abort carries the first correctness failure of a phase; every job
// stops as soon as it is set.
type abort struct {
	once sync.Once
	err  error
	hit  atomic.Bool
}

func (a *abort) fail(err error) {
	a.once.Do(func() { a.err = err; a.hit.Store(true) })
}

// jobs is the number of closed-loop jobs of every workload, one per
// client, so each daemon sees at most two connections from them.
const jobs = 2

// runClosedLoop runs the jobs until the deadline, each issuing its next
// operation as soon as the previous one completes; step reports false
// when its job has nothing left to do. It returns each job's stats and
// the elapsed wall time.
func runClosedLoop(d time.Duration, ab *abort, step func(j int, st *jobStats) bool) ([]jobStats, time.Duration) {
	stats := make([]jobStats, jobs)
	start := time.Now()
	for j := range stats {
		stats[j].start = start
	}
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !ab.hit.Load() && time.Now().Before(deadline) {
				if !step(j, &stats[j]) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return stats, time.Since(start)
}

func mergeJobs(per []jobStats) jobStats {
	var all jobStats
	for i := range per {
		all.merge(&per[i])
	}
	return all
}

// minSlice is the fewest samples a slice of slicedP99 holds, so that
// every slice's p99 has ten samples beyond it.
const minSlice = 1000

// maxSlices bounds the slices of slicedP99.
const maxSlices = 100

// slicedP99 is the tail latency a traced run reports per layer: the
// phase is cut into up to maxSlices consecutive slices of at least
// minSlice samples (each job's samples are in time order, so slice i of
// every job covers the same stretch of the phase), and the result is the
// median of the slices' p99s. A stall — a garbage collection, a
// writeback burst — moves the few slices it falls in, not the run's
// figure.
func slicedP99(per []jobStats, get func(*jobStats) samples) time.Duration {
	n := 0
	for i := range per {
		n += len(get(&per[i]))
	}
	k := max(1, min(maxSlices, n/minSlice))
	var p99s []float64
	for c := range k {
		var slice samples
		for i := range per {
			s := get(&per[i])
			slice = append(slice, s[c*len(s)/k:(c+1)*len(s)/k]...)
		}
		if len(slice) > 0 {
			p99s = append(p99s, float64(slice.quantile(0.99)))
		}
	}
	return time.Duration(median(p99s))
}
