//go:build go1.24

package product

import (
	"runtime"
	"testing"
	"weak"

	"stackless/internal/alphabet"
	"stackless/internal/core"
)

// TestCacheReleasesEvictedMachines pins that the cache keys on machine ids,
// not machine pointers: once a set's entry is evicted, nothing in the
// package keeps its member machines alive.
func TestCacheReleasesEvictedMachines(t *testing.T) {
	abc := alphabet.Letters("abc")
	const capacity, sets = 2, 16
	ch := NewCache(capacity)
	var machines []weak.Pointer[core.TagDFA]
	for i := 0; i < sets; i++ {
		a, b := tagQL(t, "a.*b", abc), tagQL(t, ".*a", abc)
		if _, _, err := ch.Get([]*core.TagDFA{a, b}, 0, nil); err != nil {
			t.Fatal(err)
		}
		machines = append(machines, weak.Make(a), weak.Make(b))
	}
	runtime.GC()
	evicted := 2 * (sets - capacity)
	for i, m := range machines[:evicted] {
		if m.Value() != nil {
			t.Fatalf("machine %d of an evicted set is still reachable", i)
		}
	}
	// The live entries hold their products, and the products their members.
	for i, m := range machines[evicted:] {
		if m.Value() == nil {
			t.Fatalf("machine %d of a cached set was collected", evicted+i)
		}
	}
	runtime.KeepAlive(ch)
}

func TestTagDFAIDsAreUnique(t *testing.T) {
	abc := alphabet.Letters("abc")
	a, b := tagQL(t, "a.*b", abc), tagQL(t, "a.*b", abc)
	if a.ID() == 0 || a.ID() == b.ID() || a.ID() != a.ID() {
		t.Fatalf("ids %d, %d: want distinct, non-zero and stable", a.ID(), b.ID())
	}
	lit := &core.TagDFA{Alphabet: abc}
	if lit.ID() == 0 || lit.ID() != lit.ID() || lit.ID() == a.ID() {
		t.Fatalf("struct-literal id %d: want non-zero, stable and fresh", lit.ID())
	}
}
