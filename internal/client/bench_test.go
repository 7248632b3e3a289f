package client

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// The client's two pipelining knobs, Config.Readahead and
// Config.WriteWindow, swept over the in-process network with a fixed
// one-way delay: each window depth hides a share of the per-chunk round
// trips, so MB/s should climb with it. Run with
//
//	go test -run '^$' -bench 'Sequential|ParallelRead' ./internal/client
//
// perfbench's stream-rw workload measures only the shipped defaults
// (Readahead 4, WriteWindow 1) over real sockets; these benchmarks are
// where the other depths are measured.

const (
	benchLatency = 50 * time.Microsecond // one-way interconnect delay
	benchChunk   = 64 << 10
	benchFileMB  = 4
)

func benchData() []byte {
	data := make([]byte, benchFileMB<<20)
	for i := range data {
		data[i] = byte(i)
	}
	return data
}

// readToEOF streams f from offset 0 in benchChunk reads and checks the
// length.
func readToEOF(f *File, buf []byte, want int) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	total := 0
	for {
		n, err := f.Read(buf)
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if total != want {
		return fmt.Errorf("read %d bytes, want %d", total, want)
	}
	return nil
}

// BenchmarkSequentialRead streams one file per op at readahead depths
// 1, 4 (the default) and 8.
func BenchmarkSequentialRead(b *testing.B) {
	r := buildClusterLat(b, 1, benchLatency)
	data := benchData()
	for _, ra := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("ra=%d", ra), func(b *testing.B) {
			path := fmt.Sprintf("/bench/seq%d", ra)
			if err := r.stores[0].Put(path, data); err != nil {
				b.Fatal(err)
			}
			cl := New(Config{Net: r.net, Managers: []string{"mgr:data"}, Readahead: ra})
			defer cl.Close()
			f, err := cl.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, benchChunk)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := readToEOF(f, buf, len(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSequentialWrite writes one file per op in benchChunk
// WriteAts at write-window depths 1 (the default, lock-step), 4 and 8.
// Flush is inside the timed op, so acked-not-arrived bytes cannot
// flatter the number.
func BenchmarkSequentialWrite(b *testing.B) {
	r := buildClusterLat(b, 1, benchLatency)
	chunk := benchData()[:benchChunk]
	size := int64(benchFileMB) << 20
	for _, win := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("win=%d", win), func(b *testing.B) {
			path := fmt.Sprintf("/bench/wseq%d", win)
			if err := r.stores[0].Put(path, nil); err != nil {
				b.Fatal(err)
			}
			cl := New(Config{Net: r.net, Managers: []string{"mgr:data"}, WriteWindow: win})
			defer cl.Close()
			f, err := cl.OpenWrite(path)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := int64(0); off < size; off += benchChunk {
					if _, err := f.WriteAt(chunk, off); err != nil {
						b.Fatal(err)
					}
				}
				if err := f.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelRead streams 8 distinct files at once, one client
// per stream at the default readahead; an op is every stream reading
// its whole file once, so MB/s is the aggregate.
func BenchmarkParallelRead(b *testing.B) {
	const streams = 8
	r := buildClusterLat(b, 1, benchLatency)
	data := benchData()
	files := make([]*File, streams)
	for g := range files {
		path := fmt.Sprintf("/bench/par%d", g)
		if err := r.stores[0].Put(path, data); err != nil {
			b.Fatal(err)
		}
		cl := New(Config{Net: r.net, Managers: []string{"mgr:data"}})
		defer cl.Close()
		f, err := cl.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		files[g] = f
	}
	b.SetBytes(int64(streams * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, streams)
		for g, f := range files {
			wg.Add(1)
			go func(g int, f *File) {
				defer wg.Done()
				errs[g] = readToEOF(f, make([]byte, benchChunk), len(data))
			}(g, f)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
