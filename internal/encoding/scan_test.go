package encoding

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"stackless/internal/alphabet"
)

// repeatReader yields n copies of b, then EOF. It has no Len method, so a
// scanner over it gets the full ScanWindow.
type repeatReader struct {
	b byte
	n int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.n)
	for i := range p[:n] {
		p[i] = r.b
	}
	r.n -= n
	return n, nil
}

// hugeDoc is a document whose one construct runs n filler bytes long.
func hugeDoc(prefix string, fill byte, n int, suffix string) io.Reader {
	return io.MultiReader(strings.NewReader(prefix), &repeatReader{fill, n}, strings.NewReader(suffix))
}

// TestScannerBoundedMemory streams 16 MiB attribute values, comments,
// processing instructions, CDATA sections and text runs: the window keeps
// its capacity, and the scan allocates the same at 1 MiB and 16 MiB.
func TestScannerBoundedMemory(t *testing.T) {
	cases := []struct {
		name, prefix string
		fill         byte
		suffix       string
	}{
		{"attribute", `<a x="`, 'v', `"><b/></a>`},
		{"comment", `<a><!--`, '<', `--><b/></a>`},
		{"pi", `<?pi `, '>', `?><a><b/></a>`},
		{"cdata", `<a><![CDATA[`, ']', `]]><b/></a>`},
		{"text", `<a>`, 't', `<b/></a>`},
	}
	const big = 16 << 20
	for _, tc := range cases {
		scan := func(n int) {
			s := NewXMLScanner(hugeDoc(tc.prefix, tc.fill, n, tc.suffix))
			events := drain(t, s)
			if len(events) != 4 || events[1] != (Event{Open, "b"}) {
				t.Fatalf("%s: events %v", tc.name, events)
			}
			if cap(s.buf) != ScanWindow {
				t.Fatalf("%s: window capacity %d, want %d", tc.name, cap(s.buf), ScanWindow)
			}
		}
		small := testing.AllocsPerRun(2, func() { scan(1 << 20) })
		large := testing.AllocsPerRun(2, func() { scan(big) })
		if small != large {
			t.Errorf("%s: %v allocations at 1 MiB, %v at 16 MiB", tc.name, small, large)
		}
	}
}

// TestScannerNameLimit pins the name-length limit: a name that fills the
// window fails with ErrLimit (not ErrMalformed) without growing it, and a
// name of MaxNameLen bytes still scans.
func TestScannerNameLimit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prefix string
		suffix string
		scan   func(io.Reader) (Source, *window)
	}{
		{"xml open", "<", "/>", func(r io.Reader) (Source, *window) { s := NewXMLScanner(r); return s, &s.window }},
		{"xml close", "<a></", ">", func(r io.Reader) (Source, *window) { s := NewXMLScanner(r); return s, &s.window }},
		{"term", "", "{}", func(r io.Reader) (Source, *window) { s := NewTermScanner(r); return s, &s.window }},
	} {
		src, w := tc.scan(hugeDoc(tc.prefix, 'n', ScanWindow+1, tc.suffix))
		var err error
		for err == nil {
			_, err = src.Next()
		}
		if !errors.Is(err, ErrLimit) || errors.Is(err, ErrMalformed) {
			t.Errorf("%s: 64 KiB+1 name: got %v, want ErrLimit", tc.name, err)
		}
		if cap(w.buf) != ScanWindow {
			t.Errorf("%s: window capacity %d after the limit", tc.name, cap(w.buf))
		}
		src, _ = tc.scan(hugeDoc(tc.prefix, 'n', MaxNameLen, tc.suffix))
		e, err := src.Next()
		if tc.name == "xml close" {
			e, err = src.Next()
		}
		if err != nil || len(e.Label) != MaxNameLen {
			t.Errorf("%s: MaxNameLen name: label of %d bytes, err %v", tc.name, len(e.Label), err)
		}
	}
}

// cycleReader serves an endless document: an open root, then body forever.
type cycleReader struct {
	head, body string
	off        int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if c.head != "" {
			k := copy(p[n:], c.head)
			c.head = c.head[k:]
			n += k
			continue
		}
		k := copy(p[n:], c.body[c.off:])
		c.off = (c.off + k) % len(c.body)
		n += k
	}
	return n, nil
}

// TestBatchScanSteadyStateZeroAllocs pins the hot path: once a stream's
// labels are interned, filling and coding a batch allocates nothing, with
// or without the balance guard.
func TestBatchScanSteadyStateZeroAllocs(t *testing.T) {
	for _, guard := range []bool{false, true} {
		var src Source = NewXMLScanner(&cycleReader{
			head: `<?xml version="1.0"?><catalog>`,
			body: `<item id="7"><name>lamp &amp; shade</name><!-- c --><discount/></item>` + "\n",
		})
		if guard {
			src = CheckBalance(src)
		}
		b := NewBatcher(src, alphabet.NewCoder(alphabet.New("item", "name")), 0)
		if _, _, err := b.NextBatch(); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() {
			if batch, _, err := b.NextBatch(); err != nil || len(batch) != DefaultBatch {
				t.Fatalf("batch of %d, %v", len(batch), err)
			}
		}); n != 0 {
			t.Errorf("guard=%v: %v allocations per batch, want 0", guard, n)
		}
	}
}

// TestTermScannerAllocsIndependentOfLength pins that the term scanner
// builds no string per event: a document twice as long over the same
// labels allocates the same.
func TestTermScannerAllocsIndependentOfLength(t *testing.T) {
	doc := func(n int) string {
		return "root{" + strings.Repeat("item{name{}price{}}, ", n) + "}"
	}
	count := func(d string) float64 {
		return testing.AllocsPerRun(5, func() {
			s := NewTermScanner(strings.NewReader(d))
			for {
				if _, err := s.Next(); err != nil {
					return
				}
			}
		})
	}
	if one, two := count(doc(500)), count(doc(1000)); one != two {
		t.Errorf("term scan: %v allocations for n, %v for 2n", one, two)
	}
}

// TestScannerTerminatorAfterPartialMatch pins terminators preceded by a
// partial match of themselves: "--->" ends a comment and "]]]>" a CDATA
// section (the last ']' of "]]]" is content).
func TestScannerTerminatorAfterPartialMatch(t *testing.T) {
	for _, doc := range []string{
		`<a><!-- x ---><b/></a>`,
		`<a><![CDATA[x]]]><b/></a>`,
		`<?pi ??><a><b/></a>`,
	} {
		got, err := ParseXML(doc)
		if err != nil || got.String() != "a(b)" {
			t.Errorf("%s: %v, %v", doc, got, err)
		}
	}
}

// TestScannerReadErrors pins that a failing reader's error surfaces as is,
// between tags and inside one, instead of reading as the end of input.
func TestScannerReadErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, doc := range []string{"<a><b/>", "<a><b x='1", "<a><b", "a{b{"} {
		r := io.MultiReader(strings.NewReader(doc), iotest.ErrReader(boom))
		var src Source = NewXMLScanner(r)
		if strings.Contains(doc, "{") {
			src = NewTermScanner(r)
		}
		var err error
		for err == nil {
			_, err = src.Next()
		}
		if !errors.Is(err, boom) {
			t.Errorf("%q: got %v, want the read error", doc, err)
		}
	}
	s := NewXMLScanner(&zeroReader{})
	if _, err := s.Next(); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("empty reads: got %v, want io.ErrNoProgress", err)
	}
}

type zeroReader struct{}

func (zeroReader) Read([]byte) (int, error) { return 0, nil }

// TestNextLabelsInterned pins one string per distinct label: every event of
// a label shares the first event's string data.
func TestNextLabelsInterned(t *testing.T) {
	events := drain(t, NewXMLScanner(strings.NewReader("<a><b/><b></b></a>")))
	first := map[string]*byte{}
	for _, e := range events {
		if p, ok := first[e.Label]; ok && p != unsafe.StringData(e.Label) {
			t.Fatalf("label %q not interned", e.Label)
		}
		first[e.Label] = unsafe.StringData(e.Label)
	}
	if len(events) != 6 || len(first) != 2 {
		t.Fatal(events)
	}
}
