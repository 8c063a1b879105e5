// Package a is the rcupub golden corpus.
package a

import (
	"sync/atomic"

	"a/b"
)

type slot struct {
	//remspan:atomic
	seq atomic.Uint64
	//remspan:atomic
	bad uint64 // want "//remspan:atomic field must have a sync/atomic type, not uint64"
	//remspan:atomic
	slots []atomic.Uint32 // a table of atomic slots is fine
	_     [40]byte
}

func consume(v slot) {}

func copies(sl *slot) slot {
	v := *sl   // want "copying struct with //remspan:atomic fields by value tears its atomic slots"
	consume(v) // want "passing struct with //remspan:atomic fields by value tears its atomic slots"
	return v   // want "returning struct with //remspan:atomic fields by value tears its atomic slots"
}

func pointersAreFine(sl *slot) *slot {
	sl.seq.Store(1)
	return sl
}

func current(sl *slot) *slot { return sl }

func derefLocal(sl *slot) uint64 {
	v := *current(sl) // want "copying struct with //remspan:atomic fields by value tears its atomic slots"
	return v.seq.Load()
}

// The structs of package b carry no annotation this package can see;
// a dereferenced call result of theirs is still a copy of an atomic.

func consumeEpoch(e b.Epoch) {}

func crossPackage(st *b.Store) uint64 {
	ep := *st.Epoch()           // want "copying dereferenced call result with sync/atomic fields by value tears its atomic slots"
	consumeEpoch(*st.Epoch())   // want "passing dereferenced call result with sync/atomic fields by value tears its atomic slots"
	var nested = *b.NewNested() // want "copying dereferenced call result with sync/atomic fields by value tears its atomic slots"
	_ = nested
	p := *b.NewPlain() // no atomic inside: fine
	_ = p
	return ep.Seq() + st.Epoch().Seq() // pointers are fine
}

func returnsEpoch(st *b.Store) b.Epoch {
	return *st.Epoch() // want "returning dereferenced call result with sync/atomic fields by value tears its atomic slots"
}
