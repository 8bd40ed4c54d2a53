package encoding

import (
	"io"

	"stackless/internal/alphabet"
)

// Coded event pipeline (DESIGN.md §11). The string labels of an event
// stream are lowered once, per distinct label, to dense alphabet.Sym codes;
// the machines then step flat state×symbol tables over CodedEvent batches
// with no hashing, no interface dispatch and no resolver in the hot loop.
// Labels outside the machine's alphabet code to the dense unknown sentinel
// (alphabet.Coder.Unknown), which compiled tables route to their dead
// state — the same poison convention the string pipeline implements with a
// branch per event.

// CodedEvent is a tag event lowered to a dense symbol code: 8 bytes, no
// pointers, so a batch is one cache-friendly allocation the GC never scans.
type CodedEvent struct {
	// Sym is the label's code under the machine's alphabet, or the coder's
	// unknown sentinel. Close events under the term encoding carry the
	// sentinel (their empty label is outside every alphabet); machines with
	// universal-close tables never consult it.
	Sym alphabet.Sym
	// Kind distinguishes Open from Close, as in Event.
	Kind Kind
}

// DefaultBatch is the batch size used by the coded drivers: big enough to
// amortize the per-batch bookkeeping, small enough to stay resident in L1.
const DefaultBatch = 4096

// CodeEvents lowers events into coded form using coder, appending to buf
// (pass nil to allocate). One-shot counterpart of Batcher for callers that
// already buffered the whole stream (the chunk-parallel engine).
func CodeEvents(coder *alphabet.Coder, events []Event, buf []CodedEvent) []CodedEvent {
	for _, e := range events {
		buf = append(buf, CodedEvent{Sym: coder.Code(e.Label), Kind: e.Kind})
	}
	return buf
}

// TagBatcher drains a Source into reusable batches of tag events whose Sym
// is the stream-local label id, not an alphabet code: the scanners fill
// them directly, and any other Source is interned per event. Each consumer
// lowers a batch through its own Coder with Code — one slice load per
// event, one alphabet lookup per distinct label — so several machines
// (MultiQuery's product groups and loose queries) share one scan. The
// batch returned by Next is overwritten by the next call.
type TagBatcher struct {
	src   tagSource
	guard *balancedSource // CheckBalance folded into the scanner's fill
	raw   []CodedEvent
	names []string
	err   error
}

// NewTagBatcher returns a tag batcher of the given batch size
// (DefaultBatch when size <= 0) over src. A scanner behind CheckBalance
// keeps its batch fill, with the guard checked in it per event.
func NewTagBatcher(src Source, size int) *TagBatcher {
	if size <= 0 {
		size = DefaultBatch
	}
	ts, g := scannerOf(src)
	if ts == nil {
		ts = &internSource{src: src, labels: newLabels()}
	}
	return &TagBatcher{src: ts, guard: g, raw: make([]CodedEvent, 0, size)}
}

// scannerOf returns src's batch fill and the balance guard to fold into
// it when src is a scanner, bare or behind CheckBalance; nil otherwise.
func scannerOf(src Source) (tagSource, *balancedSource) {
	if g, ok := src.(*balancedSource); ok {
		if ts, ok := g.inner.(tagSource); ok {
			return ts, g
		}
	}
	ts, _ := src.(tagSource)
	return ts, nil
}

// Next returns the next batch, the number of Open events in it, and the
// error that terminated the stream (io.EOF at a clean end), with the same
// contract as Batcher.NextBatch.
func (t *TagBatcher) Next() ([]CodedEvent, int, error) {
	if t.err != nil {
		t.raw = t.raw[:0]
		return nil, 0, t.err
	}
	raw, opens, err := t.src.fill(t.raw[:0], t.guard)
	t.raw, t.names, t.err = raw, t.src.labelNames(), err
	return raw, opens, err
}

// Label returns the label of event i of the current batch.
func (t *TagBatcher) Label(i int) string { return t.names[t.raw[i].Sym] }

// Code lowers the current batch through coder into dst (reusing its
// storage) and returns it. A coder must serve one stream: its id table
// extends with the stream's labels.
func (t *TagBatcher) Code(coder *alphabet.Coder, dst []CodedEvent) []CodedEvent {
	tab := coder.IDTable(t.names)
	dst = dst[:0]
	for _, e := range t.raw {
		dst = append(dst, CodedEvent{Sym: tab[e.Sym], Kind: e.Kind})
	}
	return dst
}

// internSource interns the labels of a Source without a batch fill of its
// own (the encoding/xml and JSON bridges, event slices) for a TagBatcher:
// one lookup per event.
type internSource struct {
	src Source
	labels
}

// fill implements tagSource; the guard, if any, wraps src itself.
func (s *internSource) fill(buf []CodedEvent, _ *balancedSource) ([]CodedEvent, int, error) {
	opens := 0
	for len(buf) < cap(buf) {
		e, err := s.src.Next()
		if err != nil {
			return buf, opens, err
		}
		buf = append(buf, CodedEvent{Sym: alphabet.Sym(s.internString(e.Label)), Kind: e.Kind})
		opens += 1 - int(e.Kind)
	}
	return buf, opens, nil
}

// Batcher drains a Source into reusable coded batches. The slice returned
// by NextBatch is overwritten by the next call; consumers must finish with
// a batch before pulling the next one. A *SliceSource input is consumed
// directly from its backing slice, skipping the per-event interface call;
// a scanner fills batches through a TagBatcher, with no per-event interface
// call or string.
type Batcher struct {
	src   Source
	slice *SliceSource // non-nil: slice fast path
	tags  *TagBatcher  // non-nil: scanner path
	coder *alphabet.Coder
	buf   []CodedEvent
	err   error

	// Label recovery for the current batch: the source window (slice fast
	// path, no copying) or the collected labels (generic path). Needed
	// because coding is lossy — every out-of-alphabet label maps to the one
	// unknown sentinel, yet machines that accept regardless of the label
	// (e.g. the synopsis ⊤ state) can select such events, and the reported
	// match must carry the original label.
	win    []Event
	labels []string
}

// BatchLabel returns the original label of event i of the current batch.
func (b *Batcher) BatchLabel(i int) string {
	if b.tags != nil {
		return b.tags.Label(i)
	}
	if b.win != nil {
		return b.win[i].Label
	}
	return b.labels[i]
}

// NewBatcher returns a batcher of the given batch size (DefaultBatch when
// size <= 0) coding src's labels with coder.
func NewBatcher(src Source, coder *alphabet.Coder, size int) *Batcher {
	if size <= 0 {
		size = DefaultBatch
	}
	b := &Batcher{src: src, coder: coder, buf: make([]CodedEvent, 0, size)}
	if s, ok := src.(*SliceSource); ok {
		b.slice = s
	} else if ts, _ := scannerOf(src); ts != nil {
		b.tags = NewTagBatcher(src, size)
	}
	return b
}

// NextBatch returns the next coded batch, the number of Open events in it,
// and the error that terminated the stream (io.EOF at a clean end). A final
// partial batch is returned together with its error; callers must process
// the batch before acting on the error. Subsequent calls repeat the error
// with an empty batch.
func (b *Batcher) NextBatch() ([]CodedEvent, int, error) {
	if b.tags != nil {
		_, opens, err := b.tags.Next()
		b.buf = b.tags.Code(b.coder, b.buf)
		return b.buf, opens, err
	}
	if b.err != nil {
		return nil, 0, b.err
	}
	buf := b.buf[:0]
	opens := 0
	if b.slice != nil {
		s := b.slice
		rest := s.events[s.pos:]
		if len(rest) == 0 {
			b.err = io.EOF
			return nil, 0, io.EOF
		}
		if len(rest) > cap(buf) {
			rest = rest[:cap(buf)]
		}
		for _, e := range rest {
			buf = append(buf, CodedEvent{Sym: b.coder.Code(e.Label), Kind: e.Kind})
			if e.Kind == Open {
				opens++
			}
		}
		s.pos += len(rest)
		b.buf, b.win = buf, rest
		return buf, opens, nil
	}
	labels := b.labels[:0]
	for len(buf) < cap(buf) {
		e, err := b.src.Next()
		if err != nil {
			b.err = err
			b.buf, b.labels = buf, labels
			return buf, opens, err
		}
		buf = append(buf, CodedEvent{Sym: b.coder.Code(e.Label), Kind: e.Kind})
		labels = append(labels, e.Label)
		if e.Kind == Open {
			opens++
		}
	}
	b.buf, b.labels = buf, labels
	return buf, opens, nil
}
