package xrd

import (
	"testing"

	"scalla/internal/proto"
	"scalla/internal/store"
)

// allocRig builds a server with one open 1 MiB file, bypassing the
// network so the measurement isolates the read path itself.
func allocRig(tb testing.TB) (*Server, uint64) {
	tb.Helper()
	return allocRigStore(tb, store.New(store.Config{}))
}

// diskAllocRig is allocRig over the disk backend: the same measurement
// with the payload coming out of the kernel page cache via pread.
func diskAllocRig(tb testing.TB) (*Server, uint64) {
	tb.Helper()
	st, err := store.Open(store.Config{Root: tb.TempDir() + "/data", Fsync: store.FsyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return allocRigStore(tb, st)
}

func allocRigStore(tb testing.TB, st *store.Store) (*Server, uint64) {
	tb.Helper()
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i)
	}
	if err := st.Put("/big", data); err != nil {
		tb.Fatal(err)
	}
	srv := New(Config{Store: st})
	reply, fh := srv.issueMsg("/big", false, int64(len(data)))
	if _, ok := reply.(proto.OpenOK); !ok {
		tb.Fatalf("open: %#v", reply)
	}
	return srv, fh
}

// TestReadFrameAllocsNothing pins the single-copy read path: after the
// frame pool warms up, building a 64 KiB Data frame must allocate
// nothing — the payload is copied from the store straight into a
// pooled frame (DESIGN.md §6.2, §8).
func TestReadFrameAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops pooled frames at random; the un-raced run is the gate")
	}
	srv, fh := allocRig(t)
	read := proto.Read{FH: fh, Off: 0, N: 64 << 10}
	// Warm the frame pool outside the measurement.
	if f, bad := srv.readFrame(read, 7); bad != nil {
		t.Fatalf("warmup read failed: %#v", bad)
	} else {
		f.Release()
	}
	avg := testing.AllocsPerRun(100, func() {
		f, bad := srv.readFrame(read, 7)
		if bad != nil {
			t.Fatalf("read failed: %#v", bad)
		}
		f.Release()
	})
	if avg != 0 {
		t.Fatalf("readFrame allocates %.1f objects per 64 KiB read, want 0", avg)
	}
}

// TestDiskReadFrameAllocsNothing pins the same contract end to end on
// the disk backend: page cache → pooled frame is still one copy and
// zero allocations (the pread lands directly in the frame's payload
// slice). This is the bench-smoke gate for the disk data plane.
func TestDiskReadFrameAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops pooled frames at random; the un-raced run is the gate")
	}
	srv, fh := diskAllocRig(t)
	read := proto.Read{FH: fh, Off: 0, N: 64 << 10}
	if f, bad := srv.readFrame(read, 7); bad != nil {
		t.Fatalf("warmup read failed: %#v", bad)
	} else {
		f.Release()
	}
	avg := testing.AllocsPerRun(100, func() {
		f, bad := srv.readFrame(read, 7)
		if bad != nil {
			t.Fatalf("read failed: %#v", bad)
		}
		f.Release()
	})
	if avg != 0 {
		t.Fatalf("disk readFrame allocates %.1f objects per 64 KiB read, want 0", avg)
	}
}

// BenchmarkReadFrame measures the zero-copy frame build for a 64 KiB
// read; ReportAllocs documents the 0 allocs/op claim in CI bench runs.
func BenchmarkReadFrame(b *testing.B) {
	srv, fh := allocRig(b)
	benchReadFrame(b, srv, fh)
}

// BenchmarkDiskReadFrame is the same measurement over the disk
// backend: each op is a real pread out of the page cache.
func BenchmarkDiskReadFrame(b *testing.B) {
	srv, fh := diskAllocRig(b)
	benchReadFrame(b, srv, fh)
}

func benchReadFrame(b *testing.B, srv *Server, fh uint64) {
	read := proto.Read{FH: fh, Off: 0, N: 64 << 10}
	b.ReportAllocs()
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, bad := srv.readFrame(read, 7)
		if bad != nil {
			b.Fatalf("read failed: %#v", bad)
		}
		f.Release()
	}
}

// BenchmarkDiskReadFrameParallel runs the disk read path from GOMAXPROCS
// goroutines against one open file — the server-side form of "N
// concurrent streams against tmpfs". With no per-read locks on the read
// path it should scale close to linearly until memory bandwidth.
func BenchmarkDiskReadFrameParallel(b *testing.B) {
	srv, fh := diskAllocRig(b)
	read := proto.Read{FH: fh, Off: 0, N: 64 << 10}
	b.ReportAllocs()
	b.SetBytes(64 << 10)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f, bad := srv.readFrame(read, 7)
			if bad != nil {
				b.Errorf("read failed: %#v", bad)
				return
			}
			f.Release()
		}
	})
}
