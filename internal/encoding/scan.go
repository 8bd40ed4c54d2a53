package encoding

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"stackless/internal/alphabet"
)

// Streaming scanners for the two text forms (DESIGN.md §11). Both read
// their input through one fixed window, find delimiters with the
// assembly-backed bytes.IndexByte/bytes.Index, and intern every label into
// a dense stream-local id: one lookup per tag, one string per distinct
// label. Besides the per-event Next of the Source contract, both fill whole
// batches of (kind, label id) for the coded pipeline (TagBatcher), so the
// hot path makes no per-event interface call and builds no strings.

// ScanWindow is the capacity of a scanner's read window. Text, attribute
// values, comments, processing instructions and CDATA sections stream
// through it however long they are; only a tag name must fit in it.
const ScanWindow = 64 << 10

// MaxNameLen is the longest XML tag name or term label a scanner accepts:
// the name and the byte that ends it must fit in the window together.
const MaxNameLen = ScanWindow - 1

// ErrLimit is returned when the input exceeds a fixed scanner limit: a tag
// name or term label longer than MaxNameLen. The window never grows to fit
// it, so hostile input costs bounded memory and a typed error.
var ErrLimit = errors.New("encoding: scanner limit exceeded")

var (
	commentEnd = []byte("-->")
	piEnd      = []byte("?>")
	cdataEnd   = []byte("]]>")
)

// window is a scanner's fixed read buffer: buf[pos:end] is the unread
// input. It refills with io.Reader.Read after compacting the unread bytes
// to the front, and never reallocates.
type window struct {
	r        io.Reader
	buf      []byte
	pos, end int
	eof      bool  // r reported io.EOF
	rerr     error // r failed with a non-EOF error
}

func newWindow(r io.Reader) window {
	return window{r: r, buf: make([]byte, ScanWindow)}
}

// refill compacts the unread bytes to the front of the window and reads
// more. It reports whether new bytes arrived: false at the end of the
// input, on a read error (rerr) or when the unread bytes fill the whole
// ScanWindow.
func (w *window) refill() bool {
	if w.eof || w.rerr != nil {
		return false
	}
	if w.pos > 0 {
		w.end = copy(w.buf, w.buf[w.pos:w.end])
		w.pos = 0
	}
	if w.end == len(w.buf) {
		return false
	}
	for range 100 {
		n, err := w.r.Read(w.buf[w.end:])
		w.end += n
		if err == io.EOF {
			w.eof = true
			return n > 0
		}
		if err != nil {
			w.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	w.rerr = io.ErrNoProgress
	return false
}

// ensure reports whether at least n unread bytes are in the window,
// reading more as needed.
func (w *window) ensure(n int) bool {
	for w.end-w.pos < n {
		if !w.refill() {
			return false
		}
	}
	return true
}

// skipPast consumes the input up to and including the next c, reporting
// false if the input ends first.
func (w *window) skipPast(c byte) bool {
	for {
		if i := bytes.IndexByte(w.buf[w.pos:w.end], c); i >= 0 {
			w.pos += i + 1
			return true
		}
		w.pos = w.end
		if !w.refill() {
			return false
		}
	}
}

// skipPastMarker consumes the input up to and including the next
// occurrence of marker. Only the len(marker)-1 bytes that may start a
// match straddling the refill stay in the window.
func (w *window) skipPastMarker(marker []byte) bool {
	for {
		if i := bytes.Index(w.buf[w.pos:w.end], marker); i >= 0 {
			w.pos += i + len(marker)
			return true
		}
		if keep := len(marker) - 1; w.end-w.pos > keep {
			w.pos = w.end - keep
		}
		if !w.refill() {
			return false
		}
	}
}

// full reports whether the unread bytes occupy the whole ScanWindow, so a
// name starting at pos cannot be completed.
func (w *window) full() bool { return w.pos == 0 && w.end == ScanWindow }

// malformed is the error for input that ends inside a construct: the read
// error if the reader failed, else ErrMalformed with the detail.
func (w *window) malformed(format string, args ...any) error {
	if w.rerr != nil {
		return w.rerr
	}
	return fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
}

// labels interns a stream's labels into dense ids in first-seen order: a
// lookup is one map probe with no allocation; only a new label builds a
// string.
type labels struct {
	names []string
	ids   map[string]int32 // inverse of names
}

func newLabels() labels {
	return labels{names: make([]string, 0, 16), ids: make(map[string]int32, 16)}
}

// intern returns the id of the label spelled by b, adding it on first
// sight.
func (l *labels) intern(b []byte) int32 {
	if id, ok := l.ids[string(b)]; ok {
		return id
	}
	return l.add(string(b))
}

// internString is intern for a label that is already a string.
func (l *labels) internString(name string) int32 {
	if id, ok := l.ids[name]; ok {
		return id
	}
	return l.add(name)
}

func (l *labels) add(name string) int32 {
	id := int32(len(l.names))
	l.names = append(l.names, name)
	l.ids[name] = id
	return id
}

func (l *labels) labelNames() []string { return l.names }

// scanner is what the two scanners share: a step to the next event, as a
// kind and a label id, and the labels the ids index.
type scanner interface {
	scan() (Kind, int32, error)
	labelNames() []string
}

// scanNext is the Source step of a scanner.
func scanNext[S scanner](s S) (Event, error) {
	k, id, err := s.scan()
	if err != nil {
		return Event{}, err
	}
	return Event{k, s.labelNames()[id]}, nil
}

// fillBatch is the tagSource fill of a scanner: it appends scanned events
// to buf until it is full, applying the guard g (if any) per event.
func fillBatch[S scanner](s S, buf []CodedEvent, g *balancedSource) ([]CodedEvent, int, error) {
	opens := 0
	for len(buf) < cap(buf) {
		k, id, err := s.scan()
		if g != nil {
			err = g.check(k, err)
		}
		if err != nil {
			return buf, opens, err
		}
		buf = append(buf, CodedEvent{Sym: alphabet.Sym(id), Kind: k})
		opens += 1 - int(k)
	}
	return buf, opens, nil
}

// tagSource is a Source that interns its labels and fills whole batches of
// them: CodedEvents whose Sym is the stream-local label id (an index into
// labelNames), not an alphabet code. g, when non-nil, is the balance guard
// wrapping the source, checked per event exactly as its Next would.
type tagSource interface {
	fill(buf []CodedEvent, g *balancedSource) ([]CodedEvent, int, error)
	labelNames() []string
}

// XMLScanner is a hand-rolled streaming scanner for the minimal XML form.
// It produces markup events (Close events carry the label) without
// buffering the document: this is the fast path used by the benchmarks.
//
// Supported: <a>, </a>, <a/>, whitespace between tags, attributes (skipped
// up to the closing '>', quoted values may hold '>'), comments (<!-- -->),
// CDATA sections, other directives (<!...>) and processing instructions
// (<? ?>). Text content is skipped. Mismatched closing tags are reported by
// the evaluator layer, not here. A tag name longer than MaxNameLen fails
// with ErrLimit.
type XMLScanner struct {
	window
	labels
	self int32 // label id of a self-closing tag whose Close is pending, or -1
	err  error // terminal error, io.EOF at a clean end
}

// NewXMLScanner returns a scanner over r.
func NewXMLScanner(r io.Reader) *XMLScanner {
	return &XMLScanner{window: newWindow(r), labels: newLabels(), self: -1}
}

// Next implements Source. Labels are interned: every event of one label
// carries the same string.
func (s *XMLScanner) Next() (Event, error) { return scanNext(s) }

// fill implements tagSource.
func (s *XMLScanner) fill(buf []CodedEvent, g *balancedSource) ([]CodedEvent, int, error) {
	return fillBatch(s, buf, g)
}

// scan returns the next tag's kind and label id.
func (s *XMLScanner) scan() (Kind, int32, error) {
	if s.self >= 0 {
		id := s.self
		s.self = -1
		return Close, id, nil
	}
	if s.err != nil {
		return Close, 0, s.err
	}
	k, id, err := s.tag()
	if err != nil {
		s.err = err
	}
	return k, id, err
}

// tag scans past text and markup that carries no event to the next tag.
func (s *XMLScanner) tag() (Kind, int32, error) {
	for {
		if !s.skipPast('<') {
			if s.rerr != nil {
				return Close, 0, s.rerr
			}
			return Close, 0, io.EOF
		}
		if !s.ensure(1) {
			return Close, 0, s.malformed("truncated tag")
		}
		switch s.buf[s.pos] {
		case '/':
			s.pos++
			id, err := s.name()
			if err != nil {
				return Close, 0, err
			}
			if s.buf[s.pos] == '>' { // name() stopped at an unread byte
				s.pos++
			} else if !s.skipPast('>') {
				return Close, 0, s.malformed("truncated closing tag")
			}
			return Close, id, nil
		case '!':
			s.pos++
			if err := s.directive(); err != nil {
				return Close, 0, err
			}
		case '?':
			s.pos++
			if !s.skipPastMarker(piEnd) {
				return Close, 0, s.malformed("truncated processing instruction")
			}
		default:
			id, err := s.name()
			if err != nil {
				return Open, 0, err
			}
			if s.buf[s.pos] == '>' { // name() stopped at an unread byte
				s.pos++
				return Open, id, nil
			}
			self, err := s.attrs(id)
			if err != nil {
				return Open, 0, err
			}
			if self {
				s.self = id
			}
			return Open, id, nil
		}
	}
}

// nameStop marks the bytes that end an XML tag name.
var nameStop = [256]bool{'>': true, '/': true, ' ': true, '\t': true, '\n': true, '\r': true}

// name interns the tag name starting at pos, leaving its terminator
// unread.
func (s *XMLScanner) name() (int32, error) {
	i := s.pos
	for {
		buf := s.buf[:s.end]
		for ; i < len(buf); i++ {
			if nameStop[buf[i]] {
				if i == s.pos {
					return 0, s.malformed("empty tag name")
				}
				id := s.intern(buf[s.pos:i])
				s.pos = i
				return id, nil
			}
		}
		if s.full() {
			return 0, fmt.Errorf("%w: tag name longer than %d bytes", ErrLimit, MaxNameLen)
		}
		i -= s.pos
		if !s.refill() {
			return 0, s.malformed("truncated name")
		}
		i += s.pos
	}
}

// Attribute-scanning byte classes: any other byte cancels a pending '/'.
const (
	attrOther uint8 = iota
	attrSpace       // whitespace and '=' leave a pending '/' pending
	attrSlash
	attrQuote
	attrEnd
)

var attrClass = [256]uint8{
	' ': attrSpace, '\t': attrSpace, '\n': attrSpace, '\r': attrSpace, '=': attrSpace,
	'/': attrSlash, '"': attrQuote, '\'': attrQuote, '>': attrEnd,
}

// attrs consumes the rest of an opening tag through its '>', skipping
// quoted attribute values, and reports whether the tag self-closes: a '/'
// followed only by whitespace or '=' before the '>'.
func (s *XMLScanner) attrs(id int32) (bool, error) {
	self := false
scan:
	for {
		buf := s.buf[:s.end]
		for i := s.pos; i < len(buf); i++ {
			c := buf[i]
			switch attrClass[c] {
			case attrOther:
				self = false
			case attrSlash:
				self = true
			case attrQuote:
				self = false
				if j := bytes.IndexByte(buf[i+1:], c); j >= 0 {
					i += j + 1
					continue
				}
				s.pos = len(buf) // the value runs past the window
				if !s.skipPast(c) {
					return false, s.malformed("unterminated attribute")
				}
				continue scan
			case attrEnd:
				s.pos = i + 1
				return self, nil
			}
		}
		s.pos = len(buf)
		if !s.refill() {
			return false, s.malformed("truncated tag %q", s.names[id])
		}
	}
}

// directive consumes a directive after "<!": a comment through "-->", a
// CDATA section (skipped like text) through "]]>", anything else (a
// doctype) through '>'. The terminator search starts right after "<!".
func (s *XMLScanner) directive() error {
	if s.ensure(2) && s.buf[s.pos] == '-' && s.buf[s.pos+1] == '-' {
		if !s.skipPastMarker(commentEnd) {
			return s.malformed("unterminated comment")
		}
		return nil
	}
	if s.ensure(7) && string(s.buf[s.pos:s.pos+7]) == "[CDATA[" {
		if !s.skipPastMarker(cdataEnd) {
			return s.malformed("unterminated CDATA section")
		}
		return nil
	}
	if !s.skipPast('>') {
		return s.malformed("truncated directive")
	}
	return nil
}

// TermScanner streams the brace notation a{b{}c{}} as term events. A label
// runs from its first byte that is not whitespace, ',' or '}' up to the
// next '{'; a label longer than MaxNameLen fails with ErrLimit.
type TermScanner struct {
	window
	labels
	err error // terminal error, io.EOF at a clean end
}

// NewTermScanner returns a scanner over r.
func NewTermScanner(r io.Reader) *TermScanner {
	s := &TermScanner{window: newWindow(r), labels: newLabels()}
	s.intern(nil) // id 0: the empty label of every Close
	return s
}

// Next implements Source. Labels are interned: every event of one label
// carries the same string.
func (s *TermScanner) Next() (Event, error) { return scanNext(s) }

// fill implements tagSource.
func (s *TermScanner) fill(buf []CodedEvent, g *balancedSource) ([]CodedEvent, int, error) {
	return fillBatch(s, buf, g)
}

// scan returns the next event's kind and label id (0, the empty label, for
// Close).
func (s *TermScanner) scan() (Kind, int32, error) {
	if s.err != nil {
		return Close, 0, s.err
	}
	for {
		if s.pos == s.end && !s.refill() {
			s.err = io.EOF
			if s.rerr != nil {
				s.err = s.rerr
			}
			return Close, 0, s.err
		}
		switch s.buf[s.pos] {
		case '}':
			s.pos++
			return Close, 0, nil
		case ' ', '\t', '\n', '\r', ',':
			s.pos++
			continue
		}
		id, err := s.label()
		if err != nil {
			s.err = err
		}
		return Open, id, err
	}
}

// label interns the label starting at pos (its first byte is part of it,
// even a '{') and consumes the '{' that ends it.
func (s *TermScanner) label() (int32, error) {
	i := s.pos + 1
	for {
		if j := bytes.IndexByte(s.buf[i:s.end], '{'); j >= 0 {
			id := s.intern(s.buf[s.pos : i+j])
			s.pos = i + j + 1
			return id, nil
		}
		if s.full() {
			return 0, fmt.Errorf("%w: term label longer than %d bytes", ErrLimit, MaxNameLen)
		}
		i = s.end - s.pos
		if !s.refill() {
			return 0, s.malformed("truncated term label")
		}
		i += s.pos
	}
}
