package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"scalla"
	"scalla/internal/proto"
)

// E10RarelyRespond reproduces the request-rarely-respond argument
// (Section III-B, [2]): servers answer only positively, so response
// traffic scales with the replica fraction instead of the cluster size.
// The respond-always baseline sends one message per queried server
// regardless.
func E10RarelyRespond(s Scale) Table {
	nServers := 16
	lookups := s.pick(20, 100)
	t := Table{
		ID:     "E10",
		Title:  "control messages per lookup: rarely-respond vs respond-always",
		Claim:  "most efficient when fewer than half the servers have the file (III-B)",
		Header: []string{"replica fraction", "protocol", "queries", "responses", "msgs/lookup"},
	}
	for _, replicas := range []int{1, 4, 8, 12, 16} {
		for _, always := range []bool{false, true} {
			cl, err := scalla.StartCluster(scalla.Options{
				Servers:       nServers,
				FullDelay:     250 * time.Millisecond,
				FastPeriod:    25 * time.Millisecond,
				RespondAlways: always,
			})
			if err != nil {
				t.Notes = append(t.Notes, err.Error())
				continue
			}
			for i := 0; i < lookups; i++ {
				p := fmt.Sprintf("/store/e10/r%d/f%04d", replicas, i)
				for r := 0; r < replicas; r++ {
					cl.Store((i+r)%nServers).Put(p, []byte("x"))
				}
			}
			c := cl.NewClient()
			for i := 0; i < lookups; i++ {
				c.Locate(fmt.Sprintf("/store/e10/r%d/f%04d", replicas, i), false)
			}
			// Allow in-flight responses to land.
			time.Sleep(100 * time.Millisecond)
			var queries, haves, negs int64
			for _, srv := range cl.Servers {
				queries += srv.QueriesReceived()
				haves += srv.HavesSent()
				negs += srv.Negatives()
			}
			c.Close()
			cl.Stop()
			name := "rarely-respond"
			if always {
				name = "respond-always"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d/%d", replicas, nServers),
				name,
				fmt.Sprint(queries),
				fmt.Sprint(haves + negs),
				fmt.Sprintf("%.1f", float64(queries+haves+negs)/float64(lookups)),
			})
		}
	}
	return t
}

// E11Prepare reproduces Section III-B2: a bulk workload over files that
// each require a full delay (creation, or first access to cold names)
// pays one externally visible delay with prepare, versus one delay per
// file without it.
func E11Prepare(s Scale) Table {
	nFiles := s.pick(6, 16)
	t := Table{
		ID:     "E11",
		Title:  "bulk cold access: sequential vs prepare",
		Claim:  "prepare hides all but a single full delay for bulk processing (III-B2)",
		Header: []string{"strategy", "files", "total", "per file"},
	}
	build := func() (*scalla.Cluster, *scalla.Client, []string, error) {
		cl, err := scalla.StartCluster(scalla.Options{
			Servers:    4,
			FullDelay:  200 * time.Millisecond,
			FastPeriod: 20 * time.Millisecond,
			StageDelay: 50 * time.Millisecond,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		paths := make([]string, nFiles)
		for i := range paths {
			paths[i] = fmt.Sprintf("/store/e11/f%03d", i)
			cl.Store(i%4).PutOffline(paths[i], []byte("cold"))
		}
		return cl, cl.NewClient(), paths, nil
	}
	openAll := func(c *scalla.Client, paths []string) error {
		for _, p := range paths {
			deadline := time.Now().Add(30 * time.Second)
			for {
				f, err := c.Open(p)
				if err == nil {
					f.Close()
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("open %s: %w", p, err)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		return nil
	}

	// Sequential: every cold file pays its own discovery/staging stall.
	cl, c, paths, err := build()
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	start := time.Now()
	if err := openAll(c, paths); err != nil {
		t.Notes = append(t.Notes, err.Error())
	}
	seq := time.Since(start)
	c.Close()
	cl.Stop()
	t.Rows = append(t.Rows, []string{"sequential opens", fmt.Sprint(nFiles),
		fmtMs(seq), fmtMs(seq / time.Duration(nFiles))})

	// Prepared: announce everything, then open.
	cl, c, paths, err = build()
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	start = time.Now()
	if err := c.Prepare(paths, false); err != nil {
		t.Notes = append(t.Notes, err.Error())
	}
	if err := openAll(c, paths); err != nil {
		t.Notes = append(t.Notes, err.Error())
	}
	prep := time.Since(start)
	c.Close()
	cl.Stop()
	t.Rows = append(t.Rows, []string{"prepare then open", fmt.Sprint(nFiles),
		fmtMs(prep), fmtMs(prep / time.Duration(nFiles))})
	if prep > 0 {
		t.Rows = append(t.Rows, []string{"speedup", "", fmt.Sprintf("%.1fx", float64(seq)/float64(prep)), ""})
	}
	return t
}

// E13Deadline reproduces Section III-C2: the processing deadline lets
// exactly one thread issue queries no matter how many clients storm a
// cold name — no extra locks, no duplicate query floods.
func E13Deadline(s Scale) Table {
	clients := s.pick(64, 512)
	nServers := 8
	t := Table{
		ID:     "E13",
		Title:  "deadline-based query synchronization under a client storm",
		Claim:  "the deadline prohibits multiple threads from issuing queries (III-C2)",
		Header: []string{"concurrent clients", "servers", "queries sent (total)", "queries/server", "all redirected"},
	}
	cl, err := scalla.StartCluster(scalla.Options{
		Servers:    nServers,
		FullDelay:  250 * time.Millisecond,
		FastPeriod: 25 * time.Millisecond,
	})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	defer cl.Stop()
	cl.Store(3).Put("/store/e13/hot", []byte("x"))

	var wg sync.WaitGroup
	okCount := int64(0)
	var mu sync.Mutex
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cl.NewClient()
			defer c.Close()
			if _, err := c.Locate("/store/e13/hot", false); err == nil {
				mu.Lock()
				okCount++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	time.Sleep(100 * time.Millisecond)
	var queries int64
	for _, srv := range cl.Servers {
		queries += srv.QueriesReceived()
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(clients), fmt.Sprint(nServers),
		fmt.Sprint(queries),
		fmt.Sprintf("%.2f", float64(queries)/float64(nServers)),
		fmt.Sprintf("%d/%d", okCount, clients),
	})
	t.Notes = append(t.Notes, "queries/server should be exactly 1.00 regardless of client count")
	return t
}

// E15RefreshRecovery reproduces Section III-C1: a client vectored to a
// server that cannot serve the file recovers by reissuing the request
// with a cache refresh naming the failing host, and lands on a
// surviving replica.
func E15RefreshRecovery(s Scale) Table {
	trials := s.pick(10, 50)
	t := Table{
		ID:     "E15",
		Title:  "client recovery via cache refresh after stale vectoring",
		Claim:  "reissue with refresh + failing host; avoided when re-vectoring (III-C1)",
		Header: []string{"trials", "recovered", "mean recovery", "p99 recovery"},
	}
	cl, err := scalla.StartCluster(scalla.Options{
		Servers:    4,
		FullDelay:  250 * time.Millisecond,
		FastPeriod: 25 * time.Millisecond,
	})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	defer cl.Stop()
	c := cl.NewClient()
	defer c.Close()

	recovered := 0
	var samples []time.Duration
	// Over the inline cap, so each open holds a handle at one replica and
	// the read goes there (a small file would be read from its open-time
	// snapshot and never meet the unlink).
	body := append([]byte("replica"), make([]byte, proto.InlineMax)...)
	for i := 0; i < trials; i++ {
		p := fmt.Sprintf("/store/e15/f%03d", i)
		// Two replicas.
		a, b := i%4, (i+1)%4
		cl.Store(a).Put(p, body)
		cl.Store(b).Put(p, body)
		f, err := c.Open(p)
		if err != nil {
			continue
		}
		// Delete the copy under the open handle.
		for si := range cl.Servers {
			if cl.Servers[si].DataAddr() == f.Server() {
				cl.Store(si).Unlink(p)
			}
		}
		start := time.Now()
		buf := make([]byte, 7)
		n, err := f.ReadAt(buf, 0)
		if (err == nil || err == io.EOF) && string(buf[:n]) == "replica" {
			recovered++
			samples = append(samples, time.Since(start))
		}
		f.Close()
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(trials),
		fmt.Sprintf("%d/%d", recovered, trials),
		fmtMs(meanOf(samples)),
		fmtMs(percentileOf(samples, 0.99)),
	})
	return t
}
