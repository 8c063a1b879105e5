// Package b is the cross-package half of the rcupub corpus: its
// structs hold atomics, and no //remspan:atomic comment of theirs is
// visible to the checker of package a, so only the dereferenced-call
// rule guards their copies there.
package b

import "sync/atomic"

// Epoch holds an atomic directly.
type Epoch struct {
	seq  atomic.Uint64
	rows []int
}

// Seq reads the epoch's sequence number.
func (e *Epoch) Seq() uint64 { return e.seq.Load() }

// Store owns an epoch and hands out pointers to it.
type Store struct{ ep Epoch }

// Epoch returns the store's epoch.
func (s *Store) Epoch() *Epoch { return &s.ep }

// Nested holds an atomic two struct levels down, inside an array.
type Nested struct{ inner [2]Epoch }

// NewNested returns a fresh Nested.
func NewNested() *Nested { return &Nested{} }

// Plain holds no atomic: copying it is fine.
type Plain struct{ n int }

// NewPlain returns a fresh Plain.
func NewPlain() *Plain { return &Plain{n: 1} }
