package scalla

import (
	"bytes"
	"testing"

	"scalla/internal/client"
	"scalla/internal/proto"
)

// openReadClose opens path, reads its first 4 KiB with ReadAt, checks
// them against want and closes it, returning the frames each
// destination was sent.
func openReadClose(t *testing.T, net *destCounting, cl *client.Client, path string, want []byte) map[string]int64 {
	t.Helper()
	before := net.sent()
	f, err := cl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4<<10)
	n, _ := f.ReadAt(buf, 0)
	if !bytes.Equal(buf[:n], want[:min(len(want), len(buf))]) {
		t.Fatalf("%s read %d wrong bytes", path, n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return net.since(before)
}

// A leased open, ReadAt and Close of a small file is one frame, to the
// data server: the open reply carries the file and leaves no handle to
// close. A file over proto.InlineMax still takes open, read and close.
func TestInlineOpenReadCloseIsOneFrame(t *testing.T) {
	c, err := StartCluster(quickOptions(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	small := bytes.Repeat([]byte("small"), 1000)
	big := bytes.Repeat([]byte("big"), proto.InlineMax/3+1)
	c.Store(3).Put("/inline/small", small)
	c.Store(3).Put("/inline/big", big)
	net := newDestCounting(c.Net)
	cl := client.New(client.Config{Net: net, Managers: c.ManagerAddrs()})
	defer cl.Close()
	srv := c.Servers[3].DataAddr()

	for _, tc := range []struct {
		path   string
		body   []byte
		frames int64
	}{
		{"/inline/small", small, 1},
		{"/inline/big", big, 3},
	} {
		if walk := openReadClose(t, net, cl, tc.path, tc.body); walk[srv] != tc.frames {
			t.Fatalf("walked open of %s sent %v; want %d frames to %s", tc.path, walk, tc.frames, srv)
		}
		if hit := openReadClose(t, net, cl, tc.path, tc.body); total(hit) != tc.frames || hit[srv] != tc.frames {
			t.Fatalf("leased open of %s sent %v; want exactly %d frames, to %s", tc.path, hit, tc.frames, srv)
		}
	}
	if n := c.Servers[3].DataServer().Handles(); n != 0 {
		t.Fatalf("server holds %d handles after every file was closed", n)
	}
}

// The proxy answers an inline open with a handle of its own: a small
// file read through it still costs open, read and close at the proxy.
func TestProxyOpenKeepsAHandle(t *testing.T) {
	c, err := StartCluster(quickOptions(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p, err := c.StartProxy(ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	body := []byte("through the edge")
	c.Store(1).Put("/edge/small", body)
	net := newDestCounting(c.Net)
	cl := client.New(client.Config{Net: net, Managers: []string{p.Addr()}})
	defer cl.Close()
	for range 2 {
		if sent := openReadClose(t, net, cl, "/edge/small", body); total(sent) != 3 || sent[p.Addr()] != 3 {
			t.Fatalf("open, read and close through the proxy sent %v; want 3 frames to %s", sent, p.Addr())
		}
	}
}
