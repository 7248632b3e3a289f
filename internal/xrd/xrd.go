// Package xrd implements the data server — Scalla's xrootd daemon.
//
// A data server owns a Store and serves the file-access plane:
// open/read/write/close/stat/unlink/prepare. Files that live only in
// the simulated Mass Storage System are staged on demand; clients asking
// for a staging file are told to wait and retry (the Vp path of the
// paper). The server tracks a load figure (open handles plus in-flight
// requests) that the cluster layer reports upward for server selection.
package xrd

import (
	"sync/atomic"

	"scalla/internal/mux"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
)

// Config parameterizes a Server.
type Config struct {
	// Store backs the server. Required.
	Store *store.Store
	// ReadOnly refuses writes, creates, and unlinks.
	ReadOnly bool
	// StageWaitMillis is the retry hint sent with Wait responses while a
	// file stages. Default 300.
	StageWaitMillis uint32
	// Workers bounds how many requests execute concurrently across all
	// of the server's connections (the scheduled dispatch of DESIGN.md
	// §11). Default 8.
	Workers int
	// DispatchQueue bounds queued-but-not-executing data-plane requests
	// summed over all connections; arrivals beyond it are answered with
	// RetryAfter (the shed verdict of DESIGN.md §11). Default 1024.
	DispatchQueue int
	// RetryAfterMillis is the nominal shed backoff hint; each verdict
	// carries a jittered value around it. Default 100.
	RetryAfterMillis int
	// SchedSeed seeds the shed-jitter RNG so shed verdicts are
	// deterministic for a fixed arrival order.
	SchedSeed int64
	// Tracer, if set, records one span per dispatched request.
	Tracer *obs.Tracer
	// Logf, if set, receives debug logging.
	Logf func(format string, args ...any)
}

// Server is a data server. Create one with New, then Serve a listener.
type Server struct {
	cfg  Config
	face *mux.Face
	fhs  mux.HandleSpace // numbers and counts every connection's handles

	inflight atomic.Int64

	opens        atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	staged       atomic.Int64 // Wait replies issued for staging files
}

// Stats is a snapshot of the data plane's cumulative op counters, used
// by the summary-monitoring stream and the status endpoints.
type Stats struct {
	OpenHandles  int   // handles currently open
	Inflight     int   // requests currently executing
	Opens        int64 // successful opens
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	Staged       int64 // Wait replies issued while files staged
}

type handle struct {
	path  string
	write bool
}

// handles is one connection's handle table; a dropped client leaks
// nothing.
type handles = mux.Handles[*handle]

// New returns a Server over the given configuration.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("xrd: Config.Store is required")
	}
	if cfg.StageWaitMillis == 0 {
		cfg.StageWaitMillis = 300
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{cfg: cfg}
	s.face = mux.NewFace(mux.FaceConfig{
		Name: "xrd",
		Sched: mux.SchedConfig{
			Workers:          cfg.Workers,
			QueueLimit:       cfg.DispatchQueue,
			RetryAfterMillis: cfg.RetryAfterMillis,
			Seed:             cfg.SchedSeed,
		},
		Tracer:  cfg.Tracer,
		Logf:    cfg.Logf,
		NewConn: s.serveConn,
	})
	return s
}

// Sched exposes the request scheduler for observability snapshots.
func (s *Server) Sched() *mux.Scheduler { return s.face.Sched() }

// Store returns the backing store.
func (s *Server) Store() *store.Store { return s.cfg.Store }

// Stats returns a snapshot of the cumulative op counters.
func (s *Server) Stats() Stats {
	return Stats{
		OpenHandles:  s.fhs.Open(),
		Inflight:     int(s.inflight.Load()),
		Opens:        s.opens.Load(),
		Reads:        s.reads.Load(),
		Writes:       s.writes.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Staged:       s.staged.Load(),
	}
}

// Load returns the current load figure used for server selection.
func (s *Server) Load() uint32 {
	return uint32(s.fhs.Open()) + uint32(s.inflight.Load())
}

// Serve accepts and handles connections until the listener fails
// (typically because it was closed). It blocks; run it in a goroutine.
func (s *Server) Serve(l transport.Listener) { s.face.Serve(l) }

// Close stops the listeners, drops every connection, discards queued
// requests, and waits for in-flight handlers to return.
func (s *Server) Close() { s.face.Close() }

// serveConn builds one connection's handler over its own handle table,
// which is dropped when the connection goes.
func (s *Server) serveConn() (mux.Handler, func()) {
	fhs := mux.NewHandles[*handle](&s.fhs)
	return func(msg proto.Message, r mux.Responder) proto.Message {
		s.inflight.Add(1)
		reply := s.dispatch(fhs, msg, r)
		s.inflight.Add(-1)
		return reply
	}, func() { fhs.DropAll() }
}

// dispatch handles one request on a connection with handle table fhs.
// Reads and inline opens reply through the responder's single-copy
// frame path and return nil.
func (s *Server) dispatch(fhs *handles, msg proto.Message, r mux.Responder) proto.Message {
	switch m := msg.(type) {
	case proto.Open:
		reply, inline := s.open(fhs, m, r.Stream())
		if inline != nil {
			if err := r.SendFrame(inline); err != nil {
				s.cfg.Logf("xrd: inline open reply failed: %v", err)
			}
		}
		return reply
	case proto.Read:
		return s.read(fhs, m, r)
	case proto.Write:
		return s.write(fhs, m)
	case proto.Trunc:
		return s.trunc(fhs, m)
	case proto.Close:
		return s.close(fhs, m)
	case proto.Stat:
		return s.stat(m)
	case proto.Unlink:
		return s.unlink(m)
	case proto.Prepare:
		return s.prepare(m)
	case proto.List:
		return s.list(m)
	case proto.Ping:
		return proto.Pong{Load: s.Load(), Free: s.cfg.Store.Free()}
	default:
		return proto.Err{Code: proto.EInval, Msg: "unexpected message"}
	}
}

// open answers an Open with a handle, or — for a read-only inline Open
// of an online file of at most proto.InlineMax bytes — with a
// handle-less reply frame carrying the whole file, which the caller
// sends. Exactly one of reply and inline is non-nil.
func (s *Server) open(fhs *handles, m proto.Open, stream uint32) (reply proto.Message, inline *proto.Frame) {
	st := s.cfg.Store
	if m.Create {
		if s.cfg.ReadOnly {
			return proto.Err{Code: proto.EIO, Msg: "read-only server"}, nil
		}
		if err := st.Create(m.Path); err == store.ErrExists {
			return proto.Err{Code: proto.EExist, Msg: "file exists"}, nil
		} else if err != nil {
			return proto.Err{Code: proto.EIO, Msg: err.Error()}, nil
		}
		return s.issue(fhs, m.Path, true, 0), nil
	}
	if m.Write && s.cfg.ReadOnly {
		return proto.Err{Code: proto.EIO, Msg: "read-only server"}, nil
	}
	info, err := st.Stat(m.Path)
	if err != nil {
		return proto.Err{Code: proto.ENoEnt, Msg: "no such file"}, nil
	}
	if !info.Online {
		// Kick staging and tell the client to come back.
		if _, err := st.Stage(m.Path); err != nil {
			return proto.Err{Code: proto.EIO, Msg: err.Error()}, nil
		}
		s.staged.Add(1)
		return proto.Wait{Millis: s.cfg.StageWaitMillis}, nil
	}
	if m.Inline && !m.Write && info.Size <= proto.InlineMax {
		if f := s.inlineFrame(m.Path, info.Size, stream); f != nil {
			return nil, f
		}
	}
	return s.issue(fhs, m.Path, m.Write, info.Size), nil
}

// inlineFrame builds a handle-less OpenOK carrying the whole file,
// copied once from the store into a pooled frame. It returns nil —
// and the caller issues a handle instead — when the file changed
// between the stat and the read: it grew (the read of size bytes did
// not reach the end) or it went away.
func (s *Server) inlineFrame(path string, size int64, stream uint32) *proto.Frame {
	f, dst := proto.StartInlineFrame(stream, int(size))
	n, eof, err := s.cfg.Store.ReadAtInto(path, 0, dst)
	if err != nil || !eof {
		f.Release()
		return nil
	}
	f.FinishInline(n)
	s.opens.Add(1)
	s.reads.Add(1)
	s.bytesRead.Add(int64(n))
	return f
}

func (s *Server) issue(fhs *handles, path string, write bool, size int64) proto.Message {
	fh := fhs.Issue(&handle{path: path, write: write})
	s.opens.Add(1)
	return proto.OpenOK{FH: fh, Size: size}
}

// read serves a Read through the single-copy path: the payload is
// copied from the store directly into a pooled, stream-tagged Data
// frame (no intermediate buffer) and sent through the responder. Only
// non-Data verdicts (wait, errors) come back as a reply message.
func (s *Server) read(fhs *handles, m proto.Read, r mux.Responder) proto.Message {
	f, fallback := s.readFrame(fhs, m, r.Stream())
	if f == nil {
		return fallback
	}
	if err := r.SendFrame(f); err != nil {
		s.cfg.Logf("xrd: read reply failed: %v", err)
	}
	return nil
}

// readFrame builds the single-copy Data frame for a Read, or returns
// the non-Data verdict instead. The caller owns the returned frame.
func (s *Server) readFrame(fhs *handles, m proto.Read, stream uint32) (*proto.Frame, proto.Message) {
	h, ok := fhs.Lookup(m.FH)
	if !ok {
		return nil, proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	if m.N > transport.MaxFrame/2 {
		m.N = transport.MaxFrame / 2
	}
	f, dst := proto.StartDataFrame(stream, m.FH, int(m.N))
	n, eof, err := s.cfg.Store.ReadAtInto(h.path, m.Off, dst)
	switch err {
	case nil:
		f.FinishData(n, eof)
		s.reads.Add(1)
		s.bytesRead.Add(int64(n))
		return f, nil
	case store.ErrStaging:
		f.Release()
		s.staged.Add(1)
		return nil, proto.Wait{Millis: s.cfg.StageWaitMillis}
	case store.ErrNotFound:
		// The file vanished under the handle (deleted elsewhere). The
		// client recovers with a cache refresh (Section III-C1).
		f.Release()
		return nil, proto.Err{Code: proto.ENoEnt, Msg: "file removed"}
	default:
		f.Release()
		return nil, proto.Err{Code: proto.EIO, Msg: err.Error()}
	}
}

func (s *Server) write(fhs *handles, m proto.Write) proto.Message {
	h, ok := fhs.Lookup(m.FH)
	if !ok {
		return proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	if !h.write {
		return proto.Err{Code: proto.EInval, Msg: "handle is read-only"}
	}
	n, err := s.cfg.Store.WriteAt(h.path, m.Off, m.Bytes)
	switch err {
	case nil:
	case store.ErrOffline:
		// The file was staged out after open. Kick a stage-in and tell
		// the client to wait, the same Vp verdict reads get.
		s.cfg.Store.Stage(h.path)
		s.staged.Add(1)
		return proto.Wait{Millis: s.cfg.StageWaitMillis}
	case store.ErrNoSpace:
		return proto.Err{Code: proto.EIO, Msg: "no space left"}
	default:
		return proto.Err{Code: proto.EIO, Msg: err.Error()}
	}
	s.writes.Add(1)
	s.bytesWritten.Add(int64(n))
	return proto.WriteOK{FH: m.FH, N: uint32(n)}
}

func (s *Server) trunc(fhs *handles, m proto.Trunc) proto.Message {
	h, ok := fhs.Lookup(m.FH)
	if !ok {
		return proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	if !h.write {
		return proto.Err{Code: proto.EInval, Msg: "handle is read-only"}
	}
	switch err := s.cfg.Store.Truncate(h.path, m.Size); err {
	case nil:
	case store.ErrOffline:
		s.cfg.Store.Stage(h.path)
		s.staged.Add(1)
		return proto.Wait{Millis: s.cfg.StageWaitMillis}
	default:
		return proto.Err{Code: proto.EIO, Msg: err.Error()}
	}
	return proto.TruncOK{FH: m.FH}
}

func (s *Server) close(fhs *handles, m proto.Close) proto.Message {
	if _, ok := fhs.Drop(m.FH); !ok {
		return proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	return proto.CloseOK{FH: m.FH}
}

func (s *Server) stat(m proto.Stat) proto.Message {
	info, err := s.cfg.Store.Stat(m.Path)
	if err != nil {
		return proto.StatOK{Exists: false}
	}
	return proto.StatOK{Exists: true, Size: info.Size, Online: info.Online}
}

func (s *Server) unlink(m proto.Unlink) proto.Message {
	if s.cfg.ReadOnly {
		return proto.Err{Code: proto.EIO, Msg: "read-only server"}
	}
	if err := s.cfg.Store.Unlink(m.Path); err != nil {
		return proto.Err{Code: proto.ENoEnt, Msg: "no such file"}
	}
	return proto.UnlinkOK{}
}

// prepare kicks staging for every named file that is offline here. The
// reply is immediate; staging proceeds in the background (Section
// III-B2).
func (s *Server) prepare(m proto.Prepare) proto.Message {
	queued := uint32(0)
	for _, p := range m.Paths {
		if s.cfg.Store.Has(p) && !s.cfg.Store.HasOnline(p) {
			if _, err := s.cfg.Store.Stage(p); err == nil {
				queued++
			}
		}
	}
	return proto.PrepareOK{Queued: queued}
}

// list reports this server's files under a prefix, feeding the Cluster
// Name Space daemon.
func (s *Server) list(m proto.List) proto.Message {
	infos := s.cfg.Store.List(m.Prefix)
	entries := make([]proto.Entry, len(infos))
	for i, in := range infos {
		entries[i] = proto.Entry{Path: in.Path, Size: in.Size, Online: in.Online}
	}
	return proto.ListOK{Entries: entries}
}

// Handles returns the number of open file handles across every
// connection (for tests and load inspection).
func (s *Server) Handles() int { return s.fhs.Open() }
