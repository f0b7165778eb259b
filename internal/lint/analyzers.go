package lint

import (
	"fmt"
	"hash/fnv"
)

// Fingerprint hashes the pass registry (names and docs), giving the SARIF
// log a tool version that changes whenever the checks do.
func Fingerprint() string {
	h := fnv.New64a()
	for _, a := range All() {
		fmt.Fprintf(h, "%s\x00%s\x00", a.Name, a.Doc)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// All returns every mblint pass in stable name order: the registry used by
// cmd/mblint and the test harness.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicWrite,
		CtxLoop,
		ErrWrap,
		FpComplete,
		GoroLeak,
		MapIterOrder,
		MutexHold,
		NonDeterm,
		WireFrame,
	}
}
