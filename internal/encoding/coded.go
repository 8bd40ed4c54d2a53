package encoding

import "stackless/internal/alphabet"

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
// (pass nil to allocate). One-shot counterpart of TagBatcher for callers
// that already buffered the whole stream (the chunk-parallel engine).
func CodeEvents(coder *alphabet.Coder, events []Event, buf []CodedEvent) []CodedEvent {
	for _, e := range events {
		buf = append(buf, CodedEvent{Sym: coder.Code(e.Label), Kind: e.Kind})
	}
	return buf
}

// TagBatcher drains a Source into reusable batches of tag events whose Sym
// is the stream-local label id, not an alphabet code: the scanners and
// *SliceSource fill them directly, and any other Source is interned per
// event. Each consumer lowers a batch through its own Coder with Code — one
// slice load per event, one alphabet lookup per distinct label — so several
// machines (a multi-query run's product groups and loose machines) share
// one scan. It is the one batch source of the coded pass. The batch
// returned by Next is overwritten by the next call.
type TagBatcher struct {
	src   tagSource
	guard *balancedSource // CheckBalance folded into the scanner's fill
	raw   []CodedEvent
	names []string
	err   error
}

// NewTagBatcher returns a tag batcher of the given batch size
// (DefaultBatch when size <= 0) over src. A scanner or slice behind
// CheckBalance keeps its batch fill, with the guard checked in it per event.
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
// it when src has one (a scanner or a *SliceSource), bare or behind
// CheckBalance; nil otherwise.
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
// error that terminated the stream (io.EOF at a clean end). A final partial
// batch is returned together with its error; callers must process the
// batch before acting on the error. Subsequent calls repeat the error with
// an empty batch.
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
// own (the encoding/xml and JSON bridges, wrapped sources) for a
// TagBatcher: one lookup per event.
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
