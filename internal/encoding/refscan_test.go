package encoding

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The byte-at-a-time scanners the windowed XMLScanner and TermScanner
// replaced, kept as the reference oracle of the scanner differential tests
// (FuzzXMLScannerDiff, FuzzTermScannerDiff). They read through bufio one
// byte at a time and build a string per name. One fix over their shipped
// form: skipUntil finds a terminator preceded by a partial match.

// refXMLScanner is a hand-rolled streaming scanner for the minimal XML form.
// It produces markup events (Close events carry the label) without
// buffering the document: this is the fast path used by the benchmarks.
//
// Supported: <a>, </a>, <a/>, whitespace between tags, attributes (skipped
// up to the closing '>'), comments (<!-- -->) and processing instructions
// (<? ?>). Text content is skipped. Mismatched closing tags are reported by
// the evaluator layer, not here.
type refXMLScanner struct {
	r       *bufio.Reader
	self    string // pending self-closing tag label to emit a Close for
	done    bool
	nameBuf []byte
	intern  map[string]string // label interning: one allocation per distinct label
}

// newRefXMLScanner returns a scanner over r.
func newRefXMLScanner(r io.Reader) *refXMLScanner {
	return &refXMLScanner{
		r:      bufio.NewReader(r),
		intern: make(map[string]string, 16),
	}
}

// Next implements Source.
func (s *refXMLScanner) Next() (Event, error) {
	if s.self != "" {
		label := s.self
		s.self = ""
		return Event{Close, label}, nil
	}
	if s.done {
		return Event{}, io.EOF
	}
	for {
		// Skip to next '<'.
		if err := s.skipTo('<'); err != nil {
			s.done = true
			return Event{}, io.EOF
		}
		c, err := s.r.ReadByte()
		if err != nil {
			return Event{}, fmt.Errorf("%w: truncated tag", ErrMalformed)
		}
		switch c {
		case '/':
			name, err := s.readName()
			if err != nil {
				return Event{}, err
			}
			if err := s.skipTo('>'); err != nil {
				return Event{}, fmt.Errorf("%w: truncated closing tag", ErrMalformed)
			}
			return Event{Close, name}, nil
		case '!':
			// Comment <!-- ... -->, CDATA <![CDATA[ ... ]]> (skipped like
			// text), or doctype <!...>.
			if err := s.skipDirective(); err != nil {
				return Event{}, err
			}
			continue
		case '?':
			// Processing instruction: skip to the closing '?>'.
			if err := s.skipUntil("?>"); err != nil {
				return Event{}, fmt.Errorf("%w: truncated processing instruction", ErrMalformed)
			}
			continue
		default:
			if err := s.r.UnreadByte(); err != nil {
				return Event{}, err
			}
			name, err := s.readName()
			if err != nil {
				return Event{}, err
			}
			// Skip attributes; detect self-closing.
			selfClose := false
			for {
				b, err := s.r.ReadByte()
				if err != nil {
					return Event{}, fmt.Errorf("%w: truncated tag %q", ErrMalformed, name)
				}
				if b == '/' {
					selfClose = true
					continue
				}
				if b == '>' {
					break
				}
				if b == '"' || b == '\'' { // attribute value; skip to matching quote
					if err := s.skipTo(b); err != nil {
						return Event{}, fmt.Errorf("%w: unterminated attribute", ErrMalformed)
					}
					selfClose = false
				} else if b != ' ' && b != '\t' && b != '\n' && b != '\r' && b != '=' {
					selfClose = false
				}
			}
			if selfClose {
				s.self = name
			}
			return Event{Open, name}, nil
		}
	}
}

func (s *refXMLScanner) readName() (string, error) {
	s.nameBuf = s.nameBuf[:0]
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			return "", fmt.Errorf("%w: truncated name", ErrMalformed)
		}
		if c == '>' || c == '/' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			if err := s.r.UnreadByte(); err != nil {
				return "", err
			}
			break
		}
		s.nameBuf = append(s.nameBuf, c)
	}
	if len(s.nameBuf) == 0 {
		return "", fmt.Errorf("%w: empty tag name", ErrMalformed)
	}
	if label, ok := s.intern[string(s.nameBuf)]; ok { // no alloc: map lookup by []byte-to-string conversion is optimized
		return label, nil
	}
	label := string(s.nameBuf)
	s.intern[label] = label
	return label, nil
}

// skipDirective consumes a directive after "<!": comments to "-->", CDATA
// sections to "]]>", anything else to ">".
func (s *refXMLScanner) skipDirective() error {
	peek, err := s.r.Peek(2)
	if err == nil && string(peek) == "--" {
		if err := s.skipUntil("-->"); err != nil {
			return fmt.Errorf("%w: unterminated comment", ErrMalformed)
		}
		return nil
	}
	peek, err = s.r.Peek(7)
	if err == nil && string(peek) == "[CDATA[" {
		if err := s.skipUntil("]]>"); err != nil {
			return fmt.Errorf("%w: unterminated CDATA section", ErrMalformed)
		}
		return nil
	}
	if err := s.skipTo('>'); err != nil {
		return fmt.Errorf("%w: truncated directive", ErrMalformed)
	}
	return nil
}

// skipUntil discards input up to and including the marker string. It
// compares the last len(marker) bytes read against the marker, so a
// terminator preceded by a partial match ("--->", "]]]>") is found.
func (s *refXMLScanner) skipUntil(marker string) error {
	tail := make([]byte, 0, len(marker))
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			return err
		}
		if len(tail) == len(marker) {
			tail = append(tail[:0], tail[1:]...)
		}
		tail = append(tail, c)
		if string(tail) == marker {
			return nil
		}
	}
}

// skipTo discards input up to and including delim without allocating.
func (s *refXMLScanner) skipTo(delim byte) error {
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			return err
		}
		if c == delim {
			return nil
		}
	}
}

// refTermScanner streams the brace notation a{b{}c{}} as term events.
type refTermScanner struct {
	r    *bufio.Reader
	done bool
}

// newRefTermScanner returns a scanner over r.
func newRefTermScanner(r io.Reader) *refTermScanner {
	return &refTermScanner{r: bufio.NewReader(r)}
}

// Next implements Source.
func (s *refTermScanner) Next() (Event, error) {
	if s.done {
		return Event{}, io.EOF
	}
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			s.done = true
			return Event{}, io.EOF
		}
		switch {
		case c == '}':
			return Event{Kind: Close}, nil
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',':
			continue
		default:
			var b strings.Builder
			b.WriteByte(c)
			for {
				c, err := s.r.ReadByte()
				if err != nil {
					return Event{}, fmt.Errorf("%w: truncated term label", ErrMalformed)
				}
				if c == '{' {
					return Event{Open, b.String()}, nil
				}
				b.WriteByte(c)
			}
		}
	}
}
