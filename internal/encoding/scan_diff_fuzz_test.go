package encoding_test

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"stackless/internal/alphabet"
	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/rex"
	"stackless/internal/stackeval"
	"stackless/internal/tree"
)

// FuzzXMLScannerDiff checks the windowed scanners against the byte-at-a-time
// reference scanners kept in refscan_test.go, from raw bytes:
//
//   - XMLScanner.Next under whole, one-byte, half and fuzzed-size reads, and
//     with the document straddling the edge of a full 64 KiB window, yields
//     the reference's events — kinds, labels and order — up to the first
//     error; both fail or neither does, with the same errors.Is(ErrMalformed)
//     class. The same bytes run through TermScanner against its reference.
//   - The batch path (TagBatcher; with and without the
//     CheckBalance guard folded in) codes exactly what Next plus
//     CodeEvents codes, and reports the same labels and error.
//   - Where the reference, the new scanner and encoding/xml all accept the
//     input in the supported subset, all three agree, and a query run
//     through the new scanner selects what tree.SelectQL selects on the
//     decoded tree.
func FuzzXMLScannerDiff(f *testing.F) {
	// Catalog-shaped fragments: declaration, comment, attributes, text with
	// entities, self-closing tags, nested categories.
	f.Add([]byte("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- generated catalog -->\n<catalog>\n"+
		"<item a0=\"red\" a1=\"blue\"><name>lamp &amp; shade</name><price>12</price><discount/></item>\n"+
		"<item><category><category><name>x</name></category></category><!-- c --></item>\n</catalog>\n"), []byte{3, 200, 7})
	f.Add([]byte(`<a><b x='1'><a><b/></a></b><c>text</c><a><c/><b></b></a></a>`), []byte{2, 9})
	f.Add([]byte(`<a><![CDATA[ <b> ]]><b/><!-- c --><c y="2"/></a>`), []byte{1, 30})
	f.Add([]byte(`<a x="1>2" y='<b>'><b/><c   /></a>`), []byte{1, 2, 3})
	f.Add([]byte(`<a><!-- <b> -- <c/> --><b/></a>`), []byte{4, 0, 9})
	f.Add([]byte(`<a><![CDATA[ <b> ]]]><c/><![CDATA[]]></a>`), []byte{2})
	f.Add([]byte(`<a><!-- x ---><b/></a>`), []byte{5})
	f.Add([]byte(`<?pi a?b ?><!DOCTYPE a><a/>`), []byte{0})
	f.Add([]byte(`<a/ ><b/=></b>`), []byte{1})
	f.Add([]byte(`<a><b></a></b>`), []byte{})
	f.Add([]byte(`<a x="unterminated></a>`), []byte{6})
	f.Add([]byte(`< a></a>`), []byte{})
	f.Add([]byte(`<a></`), []byte{1})
	f.Add([]byte(`<a><!-`), []byte{1})
	f.Add([]byte("a{b{}c{x{}}}"), []byte{2})
	f.Add([]byte(""), []byte{})

	coderAlph := alphabet.Letters("abc")
	queries := []string{".*a.*b", "(a|b)*c", "a.*"}
	pad := bytes.Repeat([]byte{' '}, encoding.ScanWindow)
	var edge []byte // pad tail + doc, reused across runs
	f.Fuzz(func(t *testing.T, doc, sizes []byte) {
		if len(doc) > encoding.MaxNameLen {
			t.Skip("names this long exceed the window by design")
		}
		want, wantErr := drainAll(encoding.NewRefXMLScanner(bytes.NewReader(doc)))
		// The window-edge reader pads the document so that a full 64 KiB
		// read leaves it straddling the window's end.
		edge = append(append(edge[:0], pad[:encoding.ScanWindow-1-int(firstOr(sizes, 0))]...), doc...)
		readers := []struct {
			name string
			r    io.Reader
		}{
			{"whole", bytes.NewReader(doc)},
			{"one-byte", iotest.OneByteReader(bytes.NewReader(doc))},
			{"half", iotest.HalfReader(bytes.NewReader(doc))},
			{"fuzzed-sizes", chunks(doc, sizes)},
			{"window-edge", struct{ io.Reader }{bytes.NewReader(edge)}},
		}
		for _, rd := range readers {
			got, err := drainAll(encoding.NewXMLScanner(rd.r))
			sameRun(t, "xml/"+rd.name, got, err, want, wantErr)
		}
		wantT, wantTErr := drainAll(encoding.NewRefTermScanner(bytes.NewReader(doc)))
		gotT, errT := drainAll(encoding.NewTermScanner(chunks(doc, sizes)))
		sameRun(t, "term", gotT, errT, wantT, wantTErr)

		// Batch path against Next + CodeEvents, unguarded and guarded.
		guarded, guardedErr := drainAll(encoding.CheckBalance(encoding.NewRefXMLScanner(bytes.NewReader(doc))))
		for _, guard := range []bool{false, true} {
			ref, refErr := want, wantErr
			src := encoding.Source(encoding.NewXMLScanner(chunks(doc, sizes)))
			if guard {
				ref, refErr = guarded, guardedErr
				src = encoding.CheckBalance(src)
			}
			coder := alphabet.NewCoder(coderAlph)
			b := encoding.NewTagBatcher(src, 1+int(firstOr(sizes, 4))%8)
			var coded, batch []encoding.CodedEvent
			var labels []string
			var err error
			for err == nil {
				_, _, err = b.Next()
				batch = b.Code(coder, batch)
				for i := range batch {
					labels = append(labels, b.Label(i))
				}
				coded = append(coded, batch...)
			}
			if err == io.EOF {
				err = nil
			}
			wantCoded := encoding.CodeEvents(alphabet.NewCoder(coderAlph), ref, nil)
			if !reflect.DeepEqual(coded, wantCoded) && len(coded)+len(wantCoded) > 0 {
				t.Fatalf("guard=%v: batch path coded %v, Next+CodeEvents %v", guard, coded, wantCoded)
			}
			for i, e := range ref {
				if labels[i] != e.Label {
					t.Fatalf("guard=%v: Label(%d) = %q, want %q", guard, i, labels[i], e.Label)
				}
			}
			sameErr(t, "batch", err, refErr)
		}
		tags := encoding.NewTagBatcher(encoding.NewXMLScanner(bytes.NewReader(doc)), 3)
		coders := []*alphabet.Coder{alphabet.NewCoder(coderAlph), alphabet.NewCoder(alphabet.Letters("ba"))}
		var recoded [2][]encoding.CodedEvent
		for {
			raw, _, err := tags.Next()
			for i := range raw {
				if tags.Label(i) != want[len(recoded[0])+i].Label {
					t.Fatalf("TagBatcher.Label(%d) = %q", i, tags.Label(i))
				}
			}
			for ci, c := range coders {
				recoded[ci] = append(recoded[ci], tags.Code(c, nil)...)
			}
			if err != nil {
				break
			}
		}
		for ci, c := range []*alphabet.Alphabet{coderAlph, alphabet.Letters("ba")} {
			if w := encoding.CodeEvents(alphabet.NewCoder(c), want, nil); !reflect.DeepEqual(recoded[ci], w) && len(w) > 0 {
				t.Fatalf("TagBatcher coder %d coded %v, want %v", ci, recoded[ci], w)
			}
		}

		// The supported subset: every scanner accepts, agrees, and selects
		// what the tree oracle selects.
		if wantErr != nil || !inStdSubset(doc, want) {
			return
		}
		std, stdErr := drainAll(encoding.NewStdXMLSource(bytes.NewReader(doc)))
		if stdErr != nil {
			return
		}
		if !reflect.DeepEqual(std, want) {
			t.Fatalf("encoding/xml events %v, reference %v", std, want)
		}
		tr, err := encoding.Decode(encoding.NewSliceSource(want))
		if err != nil {
			return
		}
		for _, q := range queries {
			d := rex.MustCompile(q, coderAlph)
			var got []int
			if _, err := core.SelectCoded(stackeval.QL(d), encoding.CheckBalance(encoding.NewXMLScanner(bytes.NewReader(doc))),
				func(m core.Match) { got = append(got, m.Pos) }); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if oracle := tree.SelectQL(d, tr); !reflect.DeepEqual(got, oracle) && len(got)+len(oracle) > 0 {
				t.Fatalf("%s selects %v, tree oracle %v", q, got, oracle)
			}
		}
	})
}

// inStdSubset reports whether encoding/xml reads doc the way the scanners
// do: no namespace prefixes (encoding/xml reports local names) and no
// directives but comments and CDATA (a doctype's internal subset nests
// markup the scanners skip only up to the first '>').
func inStdSubset(doc []byte, events []encoding.Event) bool {
	for _, e := range events {
		if bytes.IndexByte([]byte(e.Label), ':') >= 0 {
			return false
		}
	}
	for rest := doc; ; {
		i := bytes.Index(rest, []byte("<!"))
		if i < 0 {
			return true
		}
		rest = rest[i+2:]
		if !bytes.HasPrefix(rest, []byte("--")) && !bytes.HasPrefix(rest, []byte("[CDATA[")) {
			return false
		}
	}
}

// drainAll returns a source's events up to its first error, and that error
// (nil at a clean end).
func drainAll(src encoding.Source) ([]encoding.Event, error) {
	var out []encoding.Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

func sameRun(t *testing.T, name string, got []encoding.Event, err error, want []encoding.Event, wantErr error) {
	t.Helper()
	if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: events %v, reference %v (errors %v / %v)", name, got, want, err, wantErr)
	}
	sameErr(t, name, err, wantErr)
}

func sameErr(t *testing.T, name string, err, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || errors.Is(err, encoding.ErrMalformed) != errors.Is(wantErr, encoding.ErrMalformed) {
		t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
	}
}

func firstOr(b []byte, d byte) byte {
	if len(b) == 0 {
		return d
	}
	return b[0]
}

// chunks serves doc in reads whose sizes cycle through sizes (each 1–256
// bytes; one byte at a time when sizes is empty).
func chunks(doc, sizes []byte) io.Reader {
	return &chunkReader{r: bytes.NewReader(doc), sizes: sizes}
}

type chunkReader struct {
	r     io.Reader
	sizes []byte
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	n := 1
	if len(c.sizes) > 0 {
		n = int(c.sizes[c.i%len(c.sizes)]) + 1
		c.i++
	}
	return c.r.Read(p[:min(n, len(p))])
}
