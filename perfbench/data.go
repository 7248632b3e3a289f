package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Placed bytes are self-verifying: the 8-byte word at offset off of a
// file holds tagWord(pathHash, seed, off), so any byte read back can be
// checked without keeping the data, and a wrong byte names what it
// should have been. A file's length need not be a multiple of 8; the
// tail holds the leading bytes of the next word.

// pathHash is the 64-bit FNV-1a hash of a path; it is also the key the
// trace uses to tie hops to the operation that caused them.
func pathHash(p string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p))
	return h.Sum64()
}

// tagWord encodes the path hash, the generation seed and the word's
// offset into one 64-bit word: the high half mixes path and seed, the
// low half is the word index, so a word read from the wrong offset or
// the wrong file differs from the expected one.
func tagWord(ph uint64, seed int64, off int64) uint64 {
	hi := uint32((ph ^ uint64(seed)*0x9e3779b97f4a7c15) >> 32)
	hi ^= uint32(ph)
	return uint64(hi)<<32 | uint64(uint32(off/8))
}

// fillPattern writes the pattern of (path hash, seed) for file offset
// off into dst.
func fillPattern(dst []byte, ph uint64, seed int64, off int64) {
	var w [8]byte
	for i := 0; i < len(dst); {
		pos := off + int64(i)
		word := pos &^ 7
		if pos == word && len(dst)-i >= 8 {
			binary.LittleEndian.PutUint64(dst[i:], tagWord(ph, seed, word))
			i += 8
			continue
		}
		binary.LittleEndian.PutUint64(w[:], tagWord(ph, seed, word))
		i += copy(dst[i:], w[pos-word:])
	}
}

// pattern returns a fresh buffer of n pattern bytes starting at off.
func pattern(ph uint64, seed int64, off int64, n int) []byte {
	b := make([]byte, n)
	fillPattern(b, ph, seed, off)
	return b
}

// checkPattern verifies that got holds the pattern of (path hash, seed)
// at file offset off. The error names the path and the first wrong
// offset.
func checkPattern(path string, got []byte, ph uint64, seed int64, off int64) error {
	var w [8]byte
	for i := 0; i < len(got); {
		pos := off + int64(i)
		word := pos &^ 7
		if pos == word && len(got)-i >= 8 &&
			binary.LittleEndian.Uint64(got[i:]) == tagWord(ph, seed, word) {
			i += 8
			continue
		}
		binary.LittleEndian.PutUint64(w[:], tagWord(ph, seed, word))
		want := w[pos-word:]
		if len(want) > len(got)-i {
			want = want[:len(got)-i]
		}
		for j := range want {
			if got[i+j] != want[j] {
				return fmt.Errorf("wrong byte in %s at offset %d: got %#02x, want %#02x",
					path, pos+int64(j), got[i+j], want[j])
			}
		}
		i += len(want)
	}
	return nil
}
