package proto

import (
	"reflect"
	"testing"
	"testing/quick"
)

// all returns one populated instance of every message type; the
// round-trip test keeps this list in sync with the codec by failing if a
// kind is missing.
func all() []Message {
	return []Message{
		Login{Role: RoleServer, Name: "node7", DataAddr: "d:1094", CtlAddr: "c:1213",
			Prefixes: []string{"/store", "/data"}, Free: 1 << 40, Load: 17},
		LoginOK{Index: 42},
		LoginRej{Reason: "set full"},
		LoginRedirect{CtlAddr: "sup3:1213"},
		Query{QID: 9, Path: "/store/a.root", Hash: 0xDEADBEEF, Write: true},
		Have{QID: 9, Path: "/store/a.root", Hash: 0xDEADBEEF, Pending: true, CanWrite: true},
		HaveNot{QID: 9, Path: "/store/a.root", Hash: 0xDEADBEEF},
		Ping{},
		Pong{Load: 3, Free: 12345},
		Locate{Path: "/f", Write: true, Create: true, Refresh: true, Avoid: "bad:1094"},
		Redirect{Addr: "srv:1094", CtlAddr: "srv:1213", Pending: true},
		Wait{Millis: 5000},
		Err{Code: ENoEnt, Msg: "no such file"},
		Open{Path: "/f", Write: true, Create: false},
		Open{Path: "/small", Inline: true},
		OpenOK{FH: 77, Size: 1 << 30},
		OpenOK{Size: 3, Data: []byte{4, 5, 6}},
		Read{FH: 77, Off: 4096, N: 65536},
		Data{FH: 77, Bytes: []byte{1, 2, 3}, EOF: true},
		Write{FH: 77, Off: 0, Bytes: []byte("hello")},
		WriteOK{FH: 77, N: 5},
		Close{FH: 77},
		CloseOK{FH: 77},
		Stat{Path: "/f"},
		StatOK{Exists: true, Size: 9, Online: false},
		Prepare{Paths: []string{"/a", "/b", "/c"}, Write: true},
		PrepareOK{Queued: 3},
		Unlink{Path: "/f"},
		UnlinkOK{},
		List{Prefix: "/store"},
		ListOK{Entries: []Entry{{Path: "/store/a", Size: 4, Online: true}, {Path: "/store/b", Size: 9}}},
		Trunc{FH: 77, Size: 1024},
		TruncOK{FH: 77},
		RetryAfter{Millis: 150},
	}
}

func TestRoundTripEveryKind(t *testing.T) {
	covered := map[Kind]bool{}
	for _, m := range all() {
		covered[m.Kind()] = true
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		want := m
		// Empty slices decode as nil; normalize.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T round trip:\n got %#v\nwant %#v", m, got, want)
		}
	}
	// Every declared kind must appear in all().
	for k := KLogin; k <= KHaveNot; k++ {
		if !covered[k] {
			t.Errorf("control kind %d missing from round-trip coverage", k)
		}
	}
	for k := KLocate; k <= KTruncOK; k++ {
		if !covered[k] {
			t.Errorf("data kind %d missing from round-trip coverage", k)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil frame accepted")
	}
	if _, err := Unmarshal([]byte{0}); err == nil {
		t.Error("kind 0 accepted")
	}
	if _, err := Unmarshal([]byte{250}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Truncated payloads for a few kinds.
	for _, m := range all() {
		f := Marshal(m)
		if len(f) < 2 {
			continue
		}
		if _, err := Unmarshal(f[:len(f)-1]); err == nil {
			// Some truncations still parse (e.g. trailing bool dropped
			// leaves a short frame); only frames whose decode consumed
			// everything can detect it. Accept either, but never panic.
			_ = err
		}
	}
}

// Property: random bytes never panic the decoder.
func TestPropUnmarshalNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x: %v", b, r)
			}
		}()
		_, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Query/Have round-trip for arbitrary field values.
func TestPropQueryHaveRoundTrip(t *testing.T) {
	f := func(qid uint64, path string, hash uint32, w, p, cw bool) bool {
		q, err := Unmarshal(Marshal(Query{QID: qid, Path: path, Hash: hash, Write: w}))
		if err != nil || q != (Query{QID: qid, Path: path, Hash: hash, Write: w}) {
			return false
		}
		h, err := Unmarshal(Marshal(Have{QID: qid, Path: path, Hash: hash, Pending: p, CanWrite: cw}))
		return err == nil && h == (Have{QID: qid, Path: path, Hash: hash, Pending: p, CanWrite: cw})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Data preserves arbitrary payloads.
func TestPropDataRoundTrip(t *testing.T) {
	f := func(fh uint64, b []byte, eof bool) bool {
		m, err := Unmarshal(Marshal(Data{FH: fh, Bytes: b, EOF: eof}))
		if err != nil {
			return false
		}
		d := m.(Data)
		if d.FH != fh || d.EOF != eof || len(d.Bytes) != len(b) {
			return false
		}
		for i := range b {
			if d.Bytes[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// An inline OpenOK built in place decodes exactly as the marshaled
// message, its Data aliases the frame, and an empty file's tail
// decodes as nil.
func TestInlineFrameMatchesMarshal(t *testing.T) {
	for _, body := range [][]byte{nil, []byte("x"), make([]byte, InlineMax)} {
		// Reserve one byte more than is written: FinishInline must trim
		// the frame to the bytes actually read.
		f, dst := StartInlineFrame(9, len(body)+1)
		n := copy(dst, body)
		f.FinishInline(n)
		want := MarshalStream(OpenOK{Size: int64(len(body)), Data: body}, 9)
		if !reflect.DeepEqual(f.Bytes(), want) {
			t.Fatalf("%d-byte inline frame:\n got %x\nwant %x", len(body), f.Bytes(), want)
		}
		m, sid, err := UnmarshalStream(f.Bytes())
		if err != nil || sid != 9 {
			t.Fatalf("decode: %v, stream %d", err, sid)
		}
		o := m.(OpenOK)
		if o.FH != 0 || o.Size != int64(len(body)) || len(o.Data) != len(body) {
			t.Fatalf("decoded %d-byte inline reply as FH %d Size %d, %d bytes", len(body), o.FH, o.Size, len(o.Data))
		}
		if len(body) == 0 && o.Data != nil {
			t.Fatal("empty inline tail decoded as a non-nil slice")
		}
		if AliasesFrame(o) != (len(body) > 0) {
			t.Fatalf("AliasesFrame(%d-byte inline reply) = %v", len(body), AliasesFrame(o))
		}
		f.Release()
	}
	if AliasesFrame(OpenOK{FH: 3, Size: 10}) {
		t.Fatal("a handle reply is reported to alias its frame")
	}
}

// Property: Open's flags and OpenOK's inline bytes round-trip for
// arbitrary values.
func TestPropOpenInlineRoundTrip(t *testing.T) {
	f := func(path string, w, c, in bool, fh uint64, size int64, b []byte) bool {
		o := Open{Path: path, Write: w, Create: c, Inline: in}
		got, err := Unmarshal(Marshal(o))
		if err != nil || got != o {
			return false
		}
		if len(b) == 0 {
			b = nil
		}
		ok := OpenOK{FH: fh, Size: size, Data: b}
		back, err := Unmarshal(Marshal(ok))
		return err == nil && reflect.DeepEqual(back, ok)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoleString(t *testing.T) {
	if RoleManager.String() != "manager" || RoleServer.String() != "server" ||
		RoleSupervisor.String() != "supervisor" {
		t.Error("role names wrong")
	}
	if Role(99).String() != "role(99)" {
		t.Error("unknown role formatting wrong")
	}
}

// benchQuery is a representative hot-path frame: the Query flooded to
// every subordinate on a cache miss. It is pre-boxed as a Message so
// the benchmarks measure the marshal path, not interface conversion.
var benchQuery Message = Query{
	QID:  42,
	Path: "/store/data/Run2012A/AOD/0042/F00000042.root",
	Hash: 0xdeadbeef,
}

// BenchmarkMarshalQuery measures the allocating Marshal path: one fresh
// buffer per frame.
func BenchmarkMarshalQuery(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = Marshal(benchQuery)
		}
	})
}

// BenchmarkMarshalFrameStream measures the pooled marshal/Release cycle
// every send path uses: the buffer is recycled, so the steady state is
// allocation-free.
func BenchmarkMarshalFrameStream(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f := MarshalFrameStream(benchQuery, 0)
			_ = f.Bytes()
			f.Release()
		}
	})
}

func BenchmarkUnmarshalQuery(b *testing.B) {
	f := Marshal(Query{QID: 1, Path: "/store/data/run/file-000123.root", Hash: 0xABCD1234})
	for i := 0; i < b.N; i++ {
		_, _ = Unmarshal(f)
	}
}
