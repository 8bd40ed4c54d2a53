package encoding

import (
	"errors"
	"io"
	"strings"
	"testing"

	"stackless/internal/alphabet"
)

func codedEq(a, b CodedEvent) bool { return a == b }

func TestCodeEvents(t *testing.T) {
	coder := alphabet.NewCoder(alphabet.Letters("ab"))
	events := []Event{
		{Kind: Open, Label: "a"},
		{Kind: Open, Label: "zz"},
		{Kind: Close, Label: "zz"},
		{Kind: Close, Label: "a"},
		{Kind: Open, Label: "b"},
		{Kind: Close}, // term-style close: empty label is outside any alphabet
	}
	got := CodeEvents(coder, events, nil)
	want := []CodedEvent{
		{Sym: 0, Kind: Open},
		{Sym: 2, Kind: Open},
		{Sym: 2, Kind: Close},
		{Sym: 0, Kind: Close},
		{Sym: 1, Kind: Open},
		{Sym: 2, Kind: Close},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !codedEq(got[i], want[i]) {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// Appending into an existing buffer preserves the prefix.
	buf := CodeEvents(coder, events[:2], nil)
	buf = CodeEvents(coder, events[2:], buf)
	for i := range want {
		if !codedEq(buf[i], want[i]) {
			t.Fatalf("append mode, event %d: got %+v, want %+v", i, buf[i], want[i])
		}
	}
}

// funnelSource hides a SliceSource behind the generic interface so the
// TagBatcher interns it per event (internSource).
type funnelSource struct{ inner *SliceSource }

func (f *funnelSource) Next() (Event, error) { return f.inner.Next() }

func batcherDoc(n int) []Event {
	var events []Event
	labels := []string{"a", "b", "zz"}
	for i := 0; i < n; i++ {
		l := labels[i%len(labels)]
		events = append(events, Event{Kind: Open, Label: l}, Event{Kind: Close, Label: l})
	}
	return events
}

// xmlOf serializes a markup event stream for the XML scanner.
func xmlOf(events []Event) string {
	var sb strings.Builder
	for _, e := range events {
		if e.Kind == Open {
			sb.WriteString("<" + e.Label + ">")
		} else {
			sb.WriteString("</" + e.Label + ">")
		}
	}
	return sb.String()
}

// TestBatcherSliceAndGenericAgree: the slice fill, the per-event intern
// path and the XML scanner's fill code the same stream identically through
// TagBatcher.Code, labels included, in batches no larger than requested.
func TestBatcherSliceAndGenericAgree(t *testing.T) {
	events := batcherDoc(1000) // 2000 events: several size-64 batches
	for _, tc := range []struct {
		name string
		src  Source
	}{
		{"slice", NewSliceSource(events)},
		{"generic", &funnelSource{inner: NewSliceSource(events)}},
		{"scanner", NewXMLScanner(strings.NewReader(xmlOf(events)))},
	} {
		coder := alphabet.NewCoder(alphabet.Letters("ab"))
		b := NewTagBatcher(tc.src, 64)
		var coded, buf []CodedEvent
		var labels []string
		totalOpens := 0
		for {
			batch, opens, err := b.Next()
			buf = b.Code(coder, buf)
			if len(buf) != len(batch) {
				t.Fatalf("%s: Code gave %d events for a batch of %d", tc.name, len(buf), len(batch))
			}
			for i := range buf {
				coded = append(coded, buf[i])
				labels = append(labels, b.Label(i))
			}
			totalOpens += opens
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(batch) == 0 {
				t.Fatalf("%s: empty batch without error", tc.name)
			}
			if len(batch) > 64 {
				t.Fatalf("%s: batch of %d exceeds requested size", tc.name, len(batch))
			}
		}
		if len(coded) != len(events) {
			t.Fatalf("%s: %d coded events, want %d", tc.name, len(coded), len(events))
		}
		if totalOpens != 1000 {
			t.Fatalf("%s: %d opens, want 1000", tc.name, totalOpens)
		}
		for i, e := range events {
			wantSym := coder.Code(e.Label)
			if coded[i].Sym != wantSym || coded[i].Kind != e.Kind {
				t.Fatalf("%s: event %d: got %+v, want {%d %v}", tc.name, i, coded[i], wantSym, e.Kind)
			}
			if labels[i] != e.Label {
				t.Fatalf("%s: event %d: Label %q, want %q", tc.name, i, labels[i], e.Label)
			}
		}
		// The error is sticky.
		if _, _, err := b.Next(); err != io.EOF {
			t.Fatalf("%s: repeated Next error = %v, want io.EOF", tc.name, err)
		}
	}
}

// TestBatcherDefaultSize: a size <= 0 means DefaultBatch, for the slice
// fill and a rewound slice alike (its interned ids survive Rewind).
func TestBatcherDefaultSize(t *testing.T) {
	src := NewSliceSource(batcherDoc(3 * DefaultBatch))
	for run := 0; run < 2; run++ {
		src.Rewind()
		b := NewTagBatcher(src, 0)
		batch, _, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != DefaultBatch {
			t.Fatalf("run %d: batch size %d, want DefaultBatch %d", run, len(batch), DefaultBatch)
		}
		coded := b.Code(alphabet.NewCoder(alphabet.Letters("ab")), nil)
		if coded[0].Sym != 0 || coded[1].Sym != 0 || coded[2].Sym != 1 || coded[4].Sym != 2 {
			t.Fatalf("run %d: coded prefix %v", run, coded[:6])
		}
	}
}

// TestBatcherPartialBatchWithError: a source error must be delivered with
// the final partial batch, and repeated afterwards — through the slice
// fill with the guard folded in, and through the per-event intern path.
func TestBatcherPartialBatchWithError(t *testing.T) {
	bad := []Event{
		{Kind: Open, Label: "a"},
		{Kind: Close, Label: "a"},
		{Kind: Close, Label: "a"}, // unbalanced: error from the source
	}
	for name, src := range map[string]Source{
		"slice":   CheckBalance(NewSliceSource(bad)),
		"generic": CheckBalance(&funnelSource{inner: NewSliceSource(bad)}),
	} {
		b := NewTagBatcher(src, 8)
		batch, opens, err := b.Next()
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: err = %v, want ErrMalformed", name, err)
		}
		if len(batch) != 2 || opens != 1 {
			t.Fatalf("%s: partial batch len %d opens %d, want 2 and 1", name, len(batch), opens)
		}
		if coded := b.Code(alphabet.NewCoder(alphabet.Letters("a")), nil); len(coded) != 2 || coded[0].Sym != 0 {
			t.Fatalf("%s: coded partial batch %v", name, coded)
		}
		if b.Label(0) != "a" || b.Label(1) != "a" {
			t.Fatalf("%s: labels of the partial batch must be retained", name)
		}
		if _, _, err2 := b.Next(); !errors.Is(err2, ErrMalformed) {
			t.Fatalf("%s: repeated err = %v, want sticky ErrMalformed", name, err2)
		}
	}
}
