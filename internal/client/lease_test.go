package client

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"scalla/internal/backoff"
)

func TestLeaseFilledByOpenAndStat(t *testing.T) {
	r := buildCluster(t, 3)
	r.stores[1].Put("/lease/o", []byte("opened"))
	r.stores[2].Put("/lease/s", []byte("statted"))
	cl := r.client(t)

	f, err := cl.Open("/lease/o")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if addr, ok := cl.leases.get("/lease/o"); !ok || addr != "srv1:data" {
		t.Fatalf("lease after open = %q, %v; want srv1:data", addr, ok)
	}
	if _, err := cl.Stat("/lease/s"); err != nil {
		t.Fatal(err)
	}
	if addr, ok := cl.leases.get("/lease/s"); !ok || addr != "srv2:data" {
		t.Fatalf("lease after stat = %q, %v; want srv2:data", addr, ok)
	}
	if _, err := cl.Stat("/lease/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat of missing = %v", err)
	}
	if _, ok := cl.leases.get("/lease/missing"); ok {
		t.Fatal("a stat that found nothing left a lease")
	}

	// Repeats are answered by the leased server.
	for i := 0; i < 3; i++ {
		f, err := cl.Open("/lease/o")
		if err != nil {
			t.Fatal(err)
		}
		if f.Server() != "srv1:data" {
			t.Errorf("leased open served by %s", f.Server())
		}
		f.Close()
		if st, err := cl.Stat("/lease/s"); err != nil || st.Size != 7 {
			t.Fatalf("leased stat = %+v, %v", st, err)
		}
	}
	if ls := cl.LeaseStats(); ls.Hits != 6 || ls.Fallbacks != 0 {
		t.Fatalf("LeaseStats = %+v, want 6 hits, 0 fallbacks", ls)
	}
}

// A lease whose server stopped costs one failed exchange: the open then
// walks from the manager at once, without sleeping the retry backoff.
// "stopped" refuses the dial; "hangs up" accepts the connection and
// closes it on the first request, so the exchange itself fails.
func TestDeadLeaseFallsBackWithoutBackoff(t *testing.T) {
	r := buildCluster(t, 2)
	r.stores[1].Put("/lease/dead", []byte("survivor"))
	r.srvs[0].Stop()
	deadline := time.Now().Add(10 * time.Second)
	for r.mgr.Core().Table().OnlineVec().Count() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("manager never dropped the stopped server")
		}
		time.Sleep(time.Millisecond)
	}
	l, err := r.net.Listen("hangup:data")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				c.Recv()
				c.Close()
			}()
		}
	}()

	for _, tc := range []struct{ name, addr string }{
		{"stopped", "srv0:data"},
		{"hangs up", "hangup:data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := New(Config{Net: r.net, Managers: []string{"mgr:data"},
				Retry: backoff.Policy{Base: 5 * time.Second, Max: 5 * time.Second}})
			t.Cleanup(cl.Close)
			cl.leases.put("/lease/dead", tc.addr)
			start := time.Now()
			got, err := cl.ReadFile("/lease/dead")
			if err != nil || string(got) != "survivor" {
				t.Fatalf("ReadFile = %q, %v", got, err)
			}
			if d := time.Since(start); d >= time.Second {
				t.Errorf("fallback took %v; the 5 s retry backoff was slept", d)
			}
			if ls := cl.LeaseStats(); ls.Fallbacks != 1 {
				t.Errorf("LeaseStats = %+v, want 1 fallback", ls)
			}
			if addr, _ := cl.leases.get("/lease/dead"); addr != "srv1:data" {
				t.Errorf("lease after fallback = %q, want srv1:data", addr)
			}
		})
	}
}

// Create, OpenWrite, Unlink and Locate go through the manager whatever
// the lease says; Unlink and Relocate drop it.
func TestLeaseNotConsultedByWritesUnlinkLocate(t *testing.T) {
	r := buildCluster(t, 2)
	r.stores[1].Put("/lease/w", []byte("data"))
	cl := r.client(t)
	wrong := "srv0:data" // holds none of these paths

	cl.leases.put("/lease/w", wrong)
	fw, err := cl.OpenWrite("/lease/w")
	if err != nil {
		t.Fatal(err)
	}
	if fw.Server() != "srv1:data" {
		t.Errorf("OpenWrite served by %s, want srv1:data", fw.Server())
	}
	fw.Close()

	cl.leases.put("/lease/w", wrong)
	if addr, err := cl.Locate("/lease/w", false); err != nil || addr != "srv1:data" {
		t.Errorf("Locate = %q, %v; want srv1:data", addr, err)
	}

	cl.leases.put("/lease/new", "srv1:data")
	fc, err := cl.Create("/lease/new")
	if err != nil {
		t.Fatal(err)
	}
	fc.Close()

	cl.leases.put("/lease/w", wrong)
	if _, err := cl.Relocate("/lease/w", false, ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := cl.leases.get("/lease/w"); ok {
		t.Error("Relocate left the lease in place")
	}

	cl.leases.put("/lease/w", wrong)
	if err := cl.Unlink("/lease/w"); err != nil {
		t.Fatal(err)
	}
	if _, ok := cl.leases.get("/lease/w"); ok {
		t.Error("Unlink left the lease in place")
	}
	if !r.stores[0].Has("/lease/new") && !r.stores[1].Has("/lease/new") {
		t.Error("Create made no file")
	}
	if ls := cl.LeaseStats(); ls != (LeaseStats{}) {
		t.Errorf("LeaseStats = %+v; a write, locate or unlink consulted the lease", ls)
	}
}

// A leased Stat answered Exists: false at the stale server reports what
// the walk then finds, not a bare ENOENT.
func TestStaleLeaseStatReportsTheWalk(t *testing.T) {
	r := buildCluster(t, 2)
	r.stores[1].Put("/lease/moved", []byte("moved here"))
	cl := r.client(t)
	cl.leases.put("/lease/moved", "srv0:data")

	st, err := cl.Stat("/lease/moved")
	if err != nil || !st.Exists || st.Size != 10 {
		t.Fatalf("Stat = %+v, %v; want the walk's answer from srv1", st, err)
	}
	if ls := cl.LeaseStats(); ls.Hits != 0 || ls.Fallbacks != 1 {
		t.Errorf("LeaseStats = %+v, want 0 hits, 1 fallback", ls)
	}
	if addr, _ := cl.leases.get("/lease/moved"); addr != "srv1:data" {
		t.Errorf("lease after fallback = %q, want srv1:data", addr)
	}

	// A path gone everywhere is still an honest ENOENT, from the walk.
	cl.leases.put("/lease/gone", "srv0:data")
	if _, err := cl.Stat("/lease/gone"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Stat of a vanished path = %v, want ErrNotExist", err)
	}
	if _, ok := cl.leases.get("/lease/gone"); ok {
		t.Error("a stale lease outlived its fallback")
	}
}

// Paths sharing a slot evict each other; neither reads the other's
// server.
func TestLeaseSlotCollisionIsAMiss(t *testing.T) {
	var tab leaseTable
	a, b := "/collide/0", ""
	for i := 1; b == ""; i++ {
		if p := fmt.Sprintf("/collide/%d", i); leaseSlot(p) == leaseSlot(a) {
			b = p
		}
	}
	tab.put(a, "srvA")
	if _, ok := tab.get(b); ok {
		t.Fatalf("%s read the lease of %s", b, a)
	}
	tab.put(b, "srvB")
	if _, ok := tab.get(a); ok {
		t.Fatalf("%s kept its lease after %s took the slot", a, b)
	}
	tab.drop(b, "srvA") // names a server b's lease does not
	if addr, ok := tab.get(b); !ok || addr != "srvB" {
		t.Fatalf("a drop naming another server removed the lease: %q, %v", addr, ok)
	}
	if _, ok := tab.get(""); ok {
		t.Fatal("the empty path hit an empty slot")
	}
}

func TestLeaseLookupAllocatesNothing(t *testing.T) {
	var tab leaseTable
	tab.put("/lease/alloc", "srv0:data")
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := tab.get("/lease/alloc"); !ok {
			t.Fatal("lease lost")
		}
	}); n != 0 {
		t.Errorf("lease lookup allocates %.1f objects", n)
	}
}

// Readers, statters and a mover share one client's leases while files
// move between servers under them: every read returns the bytes of a
// copy that exists, or ErrNotExist while the file is between servers.
func TestLeaseConcurrentUse(t *testing.T) {
	r := buildCluster(t, 2)
	paths := []string{"/lease/c0", "/lease/c1", "/lease/c2"}
	for _, p := range paths {
		r.stores[0].Put(p, []byte(p))
	}
	cl := r.client(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := paths[(g+i)%len(paths)]
				if g%2 == 0 {
					got, err := cl.ReadFile(p)
					if err != nil && !errors.Is(err, ErrNotExist) && !errors.Is(err, ErrIO) {
						t.Errorf("ReadFile(%s): %v", p, err)
						return
					}
					if err == nil && string(got) != p {
						t.Errorf("ReadFile(%s) = %q", p, got)
						return
					}
				} else if _, err := cl.Stat(p); err != nil && !errors.Is(err, ErrNotExist) {
					t.Errorf("Stat(%s): %v", p, err)
					return
				}
			}
		}()
	}
	// Move every file to the other server and back, refreshing the
	// manager each time, so the readers' leases go stale under them.
	for round := 0; round < 6; round++ {
		from, to := r.stores[round%2], r.stores[(round+1)%2]
		for _, p := range paths {
			to.Put(p, []byte(p))
			from.Unlink(p)
			if _, err := cl.Relocate(p, false, ""); err != nil {
				t.Errorf("Relocate(%s): %v", p, err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	ls := cl.LeaseStats()
	t.Logf("leases: %+v", ls)
	if ls.Hits == 0 || ls.Fallbacks == 0 {
		t.Errorf("LeaseStats = %+v; want hits and fallbacks", ls)
	}
}
