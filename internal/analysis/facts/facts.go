// Package facts is the cross-package side channel of the
// interprocedural remspanlint analyzers: a per-package store of
// function summaries, serialized as deterministic JSON so it can ride
// the vetx artifact the go command threads between `go vet -vettool`
// units.
//
// The vetx file cmd/remspanlint writes is one JSON object per unit,
// mapping analyzer name to that analyzer's opaque blob:
//
//	{"hotcall": {"funcs": {"(remspan/internal/graph.*EdgeMarks).AddTree": {...}}}}
//
// Each analyzer owns its blob's schema; this package defines the one
// schema in use today — hotcall's FuncFact — plus the envelope
// helpers the driver uses to multiplex analyzers into one vetx file.
package facts

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// FuncFact is hotcall's summary of one declared function, enough for
// a dependent package to extend a hotpath call chain through it
// without re-analyzing its source.
type FuncFact struct {
	// Hotpath records a //remspan:hotpath annotation: the function is
	// checked at its own definition, so callers do not re-report its
	// findings.
	Hotpath bool `json:"hot,omitempty"`
	// Coldpath records a //remspan:coldpath annotation on the whole
	// function: an audited escape hatch callers may invoke freely.
	Coldpath bool `json:"cold,omitempty"`
	// Alloc is empty when the function is transitively
	// allocation-free under hotalloc's rules; otherwise it describes
	// the first offending construct ("file:line: make allocates in
	// hot path").
	Alloc string `json:"alloc,omitempty"`
	// Chain names the callees between this function and the
	// allocation in Alloc, outermost first and excluding the function
	// itself — empty when the allocation is in its own body.
	Chain []string `json:"chain,omitempty"`
}

// Package is one package's exported fact set, keyed by Key(fn).
type Package struct {
	Funcs map[string]FuncFact `json:"funcs"`
}

// Key returns the canonical cross-package identifier of a function:
// its types.Func.FullName ("pkg/path.Name" for functions,
// "(pkg/path.Recv).Name" for methods). Both the exporting side (source
// *types.Func) and the importing side (the same object reloaded from
// export data) produce identical keys.
func Key(fn *types.Func) string { return fn.FullName() }

// Encode serializes one package's facts. json.Marshal sorts map keys,
// so equal stores yield byte-identical blobs — the vetx content hash
// feeds the go command's build cache.
func Encode(p *Package) ([]byte, error) {
	return json.Marshal(p)
}

// Decode parses a blob produced by Encode. A nil or empty blob yields
// an empty package (dependencies without facts are normal: stdlib
// units export none).
func Decode(data []byte) (*Package, error) {
	p := &Package{Funcs: make(map[string]FuncFact)}
	if len(data) == 0 {
		return p, nil
	}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("decoding fact blob: %v", err)
	}
	if p.Funcs == nil {
		p.Funcs = make(map[string]FuncFact)
	}
	return p, nil
}

// Envelope is the multi-analyzer vetx file content: analyzer name to
// opaque blob.
type Envelope map[string]json.RawMessage

// EncodeEnvelope serializes the per-analyzer blobs of one unit.
func EncodeEnvelope(e Envelope) ([]byte, error) {
	if len(e) == 0 {
		return nil, nil
	}
	return json.Marshal(e)
}

// DecodeEnvelope parses a vetx file. Empty files (the pre-fact vetx
// artifacts, stdlib units) decode to an empty envelope.
func DecodeEnvelope(data []byte) (Envelope, error) {
	if len(data) == 0 {
		return Envelope{}, nil
	}
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("decoding vetx envelope: %v", err)
	}
	return e, nil
}
