package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"scalla/internal/proto"
)

// openHandle opens path read-only the way a client without inline
// opens would: a flag-less Open, answered with a server handle.
func (cl *Client) openHandle(t *testing.T, path string) *File {
	t.Helper()
	reply, frame, addr, err := cl.walk(proto.Open{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	f, err := cl.opened(path, false, reply, frame, addr)
	if err != nil {
		t.Fatal(err)
	}
	if f.inline {
		t.Fatalf("flag-less open of %s came back inline", path)
	}
	return f
}

// openInline opens path with Open and checks it came back inline.
func openInline(t *testing.T, cl *Client, path string) *File {
	t.Helper()
	f, err := cl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !f.inline || f.fh != 0 {
		t.Fatalf("Open of %s holds handle %d, want an inline file", path, f.fh)
	}
	return f
}

// sameResult fails unless an inline and a handle read agree on the
// count, the bytes and the error.
func sameResult(t *testing.T, what string, n1 int, p1 []byte, e1 error, n2 int, p2 []byte, e2 error) {
	t.Helper()
	if n1 != n2 || !bytes.Equal(p1[:n1], p2[:n2]) || !sameErr(e1, e2) {
		t.Fatalf("%s: inline %d %q %v, handle %d %q %v", what, n1, p1[:n1], e1, n2, p2[:n2], e2)
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// Read, ReadAt and Seek on an inline File match a handle-backed File
// byte for byte, io.EOF included, at every offset and length around the
// end of the file; writes and a second Close fail alike.
func TestInlineFileMatchesHandleFile(t *testing.T) {
	r := buildCluster(t, 1)
	cl := r.client(t)
	for _, size := range []int{0, 1, 7, 300} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			path := fmt.Sprintf("/parity/%d", size)
			body := make([]byte, size)
			for i := range body {
				body[i] = byte('a' + i%26)
			}
			r.stores[0].Put(path, body)
			in, hd := openInline(t, cl, path), cl.openHandle(t, path)
			if in.Size() != hd.Size() {
				t.Fatalf("Size: inline %d, handle %d", in.Size(), hd.Size())
			}
			p1, p2 := make([]byte, size+3), make([]byte, size+3)
			for off := int64(0); off <= int64(size)+2; off++ {
				for k := 0; k <= size+3; k++ {
					if k > 3 && k < size-3 {
						continue // the interior adds nothing the ends do not
					}
					n1, e1 := in.ReadAt(p1[:k], off)
					n2, e2 := hd.ReadAt(p2[:k], off)
					sameResult(t, fmt.Sprintf("ReadAt(%d bytes, %d)", k, off), n1, p1, e1, n2, p2, e2)
				}
			}
			if _, err := in.ReadAt(p1, -1); err == nil {
				t.Fatal("inline ReadAt at a negative offset succeeded")
			}
			// Sequential reads from a few starting points, in a few chunk
			// sizes, until two reads past the end.
			for _, chunk := range []int{1, 3, size, size + 2} {
				if chunk == 0 {
					continue // an empty file's size
				}
				for _, start := range []int64{0, int64(size) / 2, int64(size), int64(size) + 1} {
					for _, f := range []*File{in, hd} {
						if pos, err := f.Seek(start, io.SeekStart); err != nil || pos != start {
							t.Fatalf("Seek(%d) = %d, %v", start, pos, err)
						}
					}
					for eofs := 0; eofs < 2; {
						n1, e1 := in.Read(p1[:chunk])
						n2, e2 := hd.Read(p2[:chunk])
						sameResult(t, fmt.Sprintf("Read(%d) from %d", chunk, start), n1, p1, e1, n2, p2, e2)
						if e1 != nil {
							eofs++
						}
					}
				}
			}
			for _, sk := range []struct {
				off    int64
				whence int
			}{{-1, io.SeekEnd}, {0, io.SeekEnd}, {2, io.SeekEnd}, {-1, io.SeekCurrent}, {-100, io.SeekStart}, {0, 9}} {
				o1, e1 := in.Seek(sk.off, sk.whence)
				o2, e2 := hd.Seek(sk.off, sk.whence)
				if o1 != o2 || !sameErr(e1, e2) {
					t.Fatalf("Seek(%d, %d): inline %d %v, handle %d %v", sk.off, sk.whence, o1, e1, o2, e2)
				}
			}
			_, e1 := in.WriteAt([]byte("x"), 0)
			_, e2 := hd.WriteAt([]byte("x"), 0)
			if e1 == nil || !sameErr(e1, e2) {
				t.Fatalf("WriteAt: inline %v, handle %v", e1, e2)
			}
			if e1, e2 := in.Truncate(0), hd.Truncate(0); e1 == nil || !sameErr(e1, e2) {
				t.Fatalf("Truncate: inline %v, handle %v", e1, e2)
			}
			if e1, e2 := in.Close(), hd.Close(); e1 != nil || e2 != nil {
				t.Fatalf("Close: inline %v, handle %v", e1, e2)
			}
			n1, e1 := in.ReadAt(p1, 0)
			n2, e2 := hd.ReadAt(p2, 0)
			sameResult(t, "ReadAt after Close", n1, p1, e1, n2, p2, e2)
			if e1, e2 := in.Close(), hd.Close(); e1 == nil || !sameErr(e1, e2) {
				t.Fatalf("second Close: inline %v, handle %v", e1, e2)
			}
		})
	}
}

// An inline File is an open-time snapshot: bytes rewritten or unlinked
// at the server after the open are not seen through it, and the next
// Open sees them.
func TestInlineFileIsAnOpenTimeSnapshot(t *testing.T) {
	r := buildCluster(t, 1)
	cl := r.client(t)
	st := r.stores[0]
	st.Put("/snap", []byte("before"))
	f := openInline(t, cl, "/snap")
	st.Put("/snap", []byte("after!!"))
	buf := make([]byte, 16)
	if n, err := f.ReadAt(buf, 0); string(buf[:n]) != "before" || err != io.EOF {
		t.Fatalf("read after a rewrite = %q, %v; want the snapshot", buf[:n], err)
	}
	f.Close()
	if got, err := cl.ReadFile("/snap"); err != nil || string(got) != "after!!" {
		t.Fatalf("next open read %q, %v; want the rewrite", got, err)
	}

	f = openInline(t, cl, "/snap")
	st.Unlink("/snap")
	if n, err := f.ReadAt(buf, 0); string(buf[:n]) != "after!!" || err != io.EOF {
		t.Fatalf("read after an unlink = %q, %v; want the snapshot", buf[:n], err)
	}
	f.Close()
	if _, err := cl.Open("/snap"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("next open of an unlinked file: %v, want ErrNotExist", err)
	}
}

// Write opens, creates, files over the cap and flag-less raw opens all
// hold a real server handle.
func TestInlineOnlyForSmallReadOnlyOpens(t *testing.T) {
	r := buildCluster(t, 1)
	cl := r.client(t)
	r.stores[0].Put("/small", []byte("small"))
	r.stores[0].Put("/big", make([]byte, proto.InlineMax+1))
	r.stores[0].Put("/cap", make([]byte, proto.InlineMax))

	openInline(t, cl, "/cap").Close()
	handles := map[string]func() (*File, error){
		"OpenWrite":     func() (*File, error) { return cl.OpenWrite("/small") },
		"Create":        func() (*File, error) { return cl.Create("/created") },
		"Open over cap": func() (*File, error) { return cl.Open("/big") },
	}
	for name, open := range handles {
		f, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.inline || f.fh == 0 || f.frame != nil {
			t.Fatalf("%s: inline %v, handle %d; want a server handle", name, f.inline, f.fh)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
	}
	mc, err := cl.pool.Get("srv0:data")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := mc.Call(proto.Open{Path: "/small"}, cl.cfg.RPCTimeout)
	if ok, isOK := reply.(proto.OpenOK); err != nil || !isOK || ok.FH == 0 || ok.Data != nil {
		t.Fatalf("flag-less raw open = %#v, %v; want a handle", reply, err)
	}
	if n := r.srvs[0].DataServer().Handles(); n != 1 {
		t.Fatalf("server holds %d handles, want only the raw open's", n)
	}
}

// Neither a leased open nor a walked one leaks its pooled reply frame:
// Close returns it, so repeated opens of a file at the cap allocate
// well under the file's size per op. A frame kept past Close would
// cost a fresh one of at least that size on every reply.
func TestInlineOpenRecyclesItsFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops pooled frames at random; the un-raced run is the gate")
	}
	r := buildCluster(t, 1)
	cl := r.client(t)
	const path = "/recycle"
	r.stores[0].Put(path, make([]byte, proto.InlineMax))
	buf := make([]byte, 4<<10)
	op := func() {
		f := openInline(t, cl, path)
		if n, err := f.ReadAt(buf, 0); n != len(buf) || err != nil {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if f.frame != nil || f.data != nil {
			t.Fatal("Close kept the inline snapshot")
		}
	}
	for _, tc := range []struct {
		name  string
		leave func()
	}{
		{"leased", func() {}},
		{"walked", func() { cl.leases.drop(path, "") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const ops = 200
			for range 20 {
				tc.leave()
				op()
			}
			hits := cl.LeaseStats().Hits
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range ops {
				tc.leave()
				op()
			}
			runtime.ReadMemStats(&after)
			if tc.name == "leased" && cl.LeaseStats().Hits-hits != ops {
				t.Fatalf("%d of %d opens hit the lease", cl.LeaseStats().Hits-hits, ops)
			}
			if per := (after.TotalAlloc - before.TotalAlloc) / ops; per >= proto.InlineMax {
				t.Fatalf("%s inline open allocates %d B per op; a %d B reply frame is not recycled", tc.name, per, proto.InlineMax)
			}
		})
	}
}

// One inline File read from several goroutines at once and closed under
// them: every read returns the file's bytes or, once Close has released
// the snapshot, the bad-handle error.
func TestInlineFileConcurrentReadsAndClose(t *testing.T) {
	r := buildCluster(t, 1)
	cl := r.client(t)
	body := []byte("concurrent inline bytes")
	r.stores[0].Put("/conc", body)
	f := openInline(t, cl, "/conc")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(body)+1)
			for i := 0; i < 2000; i++ {
				n, err := f.ReadAt(buf, 0)
				if g == 1 { // the only user of the cursor
					f.Seek(0, io.SeekStart)
					n, err = f.Read(buf)
				}
				switch {
				case err == io.EOF && bytes.Equal(buf[:n], body):
				case n == 0 && errors.Is(err, ErrIO):
					return // closed
				default:
					t.Errorf("read = %q, %v", buf[:n], err)
					return
				}
			}
		}()
	}
	buf := make([]byte, 4)
	for i := 0; i < 100; i++ {
		f.ReadAt(buf, int64(i%len(body)))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
