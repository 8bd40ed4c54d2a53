package core

import (
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/encoding"
	"stackless/internal/tree"
)

// Direct unit tests for the ELFromQL/ALFromQL wrappers (previously only
// exercised through the end-to-end recognizers), including the
// unspecified-after-Close convention: a node-selecting evaluator's
// Accepting value after Close events is unspecified (Section 2.3), so the
// wrappers must never consult it there.

// mockQL selects nodes whose label is in sel, tracked with an explicit
// label stack. After Close events its Accepting value is deliberately
// garbage when poisonAfterClose is set, and every Accepting call made
// while the last event was a Close is counted — the wrappers must make
// none.
type mockQL struct {
	sel              map[string]bool
	poisonAfterClose bool

	stack           []string
	lastWasClose    bool
	calls           int
	callsAfterClose int
}

func (m *mockQL) Reset() {
	m.stack = m.stack[:0]
	m.lastWasClose = false
}

func (m *mockQL) Step(e encoding.Event) {
	if e.Kind == encoding.Open {
		m.stack = append(m.stack, e.Label)
		m.lastWasClose = false
		return
	}
	if n := len(m.stack); n > 0 {
		m.stack = m.stack[:n-1]
	}
	m.lastWasClose = true
}

func (m *mockQL) Accepting() bool {
	m.calls++
	if m.lastWasClose {
		m.callsAfterClose++
		if m.poisonAfterClose {
			return m.calls%2 == 0 // garbage: alternates per call
		}
	}
	return len(m.stack) > 0 && m.sel[m.stack[len(m.stack)-1]]
}

// The wrappers take a Chunkable inner machine; mockQL's chunk methods are
// no-ops (one control state, never poisoned) since these tests only step.
func (m *mockQL) ChunkStates() int              { return 1 }
func (m *mockQL) Cut() CutPolicy                { return CutNone }
func (m *mockQL) Fork() Chunkable               { return m }
func (m *mockQL) BeginSegment(int)              {}
func (m *mockQL) EndSegment() SegmentExit       { return SegmentExit{} }
func (m *mockQL) JoinState() int                { return 0 }
func (m *mockQL) ApplySegment(SegmentExit, int) {}
func runWrapper(w Evaluator, events []encoding.Event) bool {
	w.Reset()
	for _, e := range events {
		w.Step(e)
	}
	return w.Accepting()
}

func TestELALWrapperVerdicts(t *testing.T) {
	cases := []struct {
		doc    string
		sel    []string
		wantEL bool // some leaf selected
		wantAL bool // every leaf selected
	}{
		{"a", []string{"a"}, true, true},
		{"a", []string{"b"}, false, false},
		{"a(b,c)", []string{"b"}, true, false},
		{"a(b,c)", []string{"b", "c"}, true, true},
		{"a(b(c),b)", []string{"b"}, true, false},
		{"a(b(c),b)", []string{"c", "b"}, true, true},
		{"a(a(a(a)))", []string{"a"}, true, true},
		{"a(a(a(a)))", []string{"b"}, false, false},
		{"a(b,b,b,c)", []string{"b"}, true, false},
		{"b(a(c,c),a(c))", []string{"c"}, true, true},
	}
	for _, tc := range cases {
		for _, poison := range []bool{false, true} {
			sel := map[string]bool{}
			for _, s := range tc.sel {
				sel[s] = true
			}
			events := encoding.Markup(tree.MustParse(tc.doc))
			inner := &mockQL{sel: sel, poisonAfterClose: poison}
			if got := runWrapper(ELFromQL(inner), events); got != tc.wantEL {
				t.Errorf("EL(%s, sel=%v, poison=%v) = %v, want %v", tc.doc, tc.sel, poison, got, tc.wantEL)
			}
			if inner.callsAfterClose != 0 {
				t.Errorf("EL(%s): %d Accepting calls after Close events (unspecified there)", tc.doc, inner.callsAfterClose)
			}
			inner = &mockQL{sel: sel, poisonAfterClose: poison}
			if got := runWrapper(ALFromQL(inner), events); got != tc.wantAL {
				t.Errorf("AL(%s, sel=%v, poison=%v) = %v, want %v", tc.doc, tc.sel, poison, got, tc.wantAL)
			}
			if inner.callsAfterClose != 0 {
				t.Errorf("AL(%s): %d Accepting calls after Close events (unspecified there)", tc.doc, inner.callsAfterClose)
			}
		}
	}
}

// TestELALWrapperEmptyStream pins the boundary convention: with no events,
// EL rejects (no leaf was selected) and AL rejects too (started is false —
// the empty stream encodes no tree).
func TestELALWrapperEmptyStream(t *testing.T) {
	inner := &mockQL{sel: map[string]bool{"a": true}}
	if runWrapper(ELFromQL(inner), nil) {
		t.Error("EL accepts the empty stream")
	}
	if runWrapper(ALFromQL(inner), nil) {
		t.Error("AL accepts the empty stream")
	}
}

// TestELWrapperFreezesAfterMatch: once a selected leaf is seen, the EL
// wrapper's verdict is frozen — later events (including rejected leaves)
// cannot unmatch it, and the inner machine is no longer stepped.
func TestELWrapperFreezesAfterMatch(t *testing.T) {
	inner := &mockQL{sel: map[string]bool{"b": true}}
	w := ELFromQL(inner)
	events := encoding.Markup(tree.MustParse("a(b,c,c,c)"))
	w.Reset()
	for i, e := range events {
		w.Step(e)
		matchedYet := i >= 2 // b's Close is event index 2
		if w.Accepting() != matchedYet {
			t.Fatalf("event %d: Accepting = %v, want %v", i, w.Accepting(), matchedYet)
		}
	}
	// The wrapper froze at b's Close: the inner machine never saw the
	// remaining events, so its stack still holds [a b].
	if len(inner.stack) != 2 {
		t.Fatalf("inner stepped after the match: stack %v", inner.stack)
	}
	if inner.callsAfterClose != 0 {
		t.Fatalf("inner consulted after Close: %d", inner.callsAfterClose)
	}
}

// TestALWrapperFailsOnFirstRejectedLeaf: the AL wrapper latches failure at
// the first leaf read in a rejecting state.
func TestALWrapperFailsOnFirstRejectedLeaf(t *testing.T) {
	inner := &mockQL{sel: map[string]bool{"b": true}}
	w := ALFromQL(inner)
	events := encoding.Markup(tree.MustParse("a(b,c,b)"))
	w.Reset()
	failedAt := -1
	for i, e := range events {
		w.Step(e)
		if failedAt < 0 && !w.Accepting() && i > 0 {
			failedAt = i
		}
	}
	if failedAt != 4 { // c's Close is event index 4: the first rejected leaf
		t.Fatalf("failure latched at event %d, want 4", failedAt)
	}
	if w.Accepting() {
		t.Fatal("AL accepted despite a rejected leaf")
	}
}

// TestWrapperVariantSelection: over a Chunkable inner machine the wrappers
// are the chunk-parallel variants.
func TestWrapperVariantSelection(t *testing.T) {
	tag := NewTagDFA(alphabet.Letters("ab"), 1, 0)
	chunkInner := tag.Evaluator()
	if _, ok := chunkInner.(Chunkable); !ok {
		t.Fatal("tag evaluator is not chunkable")
	}
	el := ELFromQL(chunkInner)
	if _, ok := el.(*chunkableEL); !ok {
		t.Errorf("EL over a chunkable inner: got %T, want *chunkableEL", el)
	}
	if _, ok := el.(Chunkable); !ok {
		t.Error("chunkable EL wrapper does not implement Chunkable")
	}
	al := ALFromQL(chunkInner)
	if _, ok := al.(*chunkableAL); !ok {
		t.Errorf("AL over a chunkable inner: got %T, want *chunkableAL", al)
	}
	if _, ok := al.(Chunkable); !ok {
		t.Error("chunkable AL wrapper does not implement Chunkable")
	}
}
