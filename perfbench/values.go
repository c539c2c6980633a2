package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Every value the benchmark writes is derived from its key and its write
// number, so a reader can tell from the bytes alone whether a GET returned
// exactly what some acknowledged SET of that key stored:
//
//	[0:8)   write id: worker<<40 | per-worker write sequence (from 1)
//	[8:16)  FNV-1a hash of the key
//	[16:n)  filler, each 8-byte word a function of the two words above
//
// Concurrent workers may write the same key, so a read is checked against
// the key and against the set of writes issued so far, not against one
// expected write.

const valueHeader = 16

// writers hands out write ids and remembers how many each worker issued.
type writers struct {
	issued []atomic.Uint64
}

func newWriters(workers int) *writers { return &writers{issued: make([]atomic.Uint64, workers)} }

// next returns worker w's next write id.
func (ws *writers) next(w int) uint64 { return uint64(w)<<40 | ws.issued[w].Add(1) }

func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func fillerWord(id, kh uint64, i int) uint64 {
	z := id ^ kh ^ uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}

// makeValue builds the size-byte value of write id for key (size is a
// multiple of 8 and at least valueHeader).
func makeValue(key string, id uint64, size int) []byte {
	v := make([]byte, size)
	kh := keyHash(key)
	binary.LittleEndian.PutUint64(v[0:], id)
	binary.LittleEndian.PutUint64(v[8:], kh)
	for i := valueHeader; i < size; i += 8 {
		binary.LittleEndian.PutUint64(v[i:], fillerWord(id, kh, i))
	}
	return v
}

// check verifies that v is exactly the value some issued write stored
// under key, and returns that write's id.
func (ws *writers) check(key string, v []byte, size int) (uint64, error) {
	if len(v) != size {
		return 0, fmt.Errorf("value of %q has %d bytes, want %d", key, len(v), size)
	}
	id := binary.LittleEndian.Uint64(v[0:])
	kh := keyHash(key)
	if got := binary.LittleEndian.Uint64(v[8:]); got != kh {
		return 0, fmt.Errorf("value of %q belongs to another key (hash %#x)", key, got)
	}
	w, seq := int(id>>40), id&(1<<40-1)
	if w >= len(ws.issued) || seq == 0 || seq > ws.issued[w].Load() {
		return 0, fmt.Errorf("value of %q carries write id %#x that was never issued", key, id)
	}
	for i := valueHeader; i < size; i += 8 {
		if binary.LittleEndian.Uint64(v[i:]) != fillerWord(id, kh, i) {
			return 0, fmt.Errorf("value of %q is corrupt at byte %d", key, i)
		}
	}
	return id, nil
}
