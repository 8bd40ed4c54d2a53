package stackless

import (
	"errors"
	"io"
	"strings"
	"testing"

	"stackless/internal/encoding"
)

// TestXMLEntryPointsEventsAndErrors pins, on well-formed and malformed
// documents, that every public XML entry point — whatever pipeline, tier or
// worker count it runs — reports the events the guarded scanner delivers
// before its first error, and fails with the same error class. The scanner
// itself is pinned to the byte-at-a-time reference by FuzzXMLScannerDiff.
func TestXMLEntryPointsEventsAndErrors(t *testing.T) {
	docs := []string{
		`<a><b/><c x="1>"><b/></c><a><b></b></a></a>`,
		`<a><![CDATA[x]]]><b/><!-- -- ---></a>`,
		`<a><b></a>`,  // ends at depth 1
		`<a></a><b/>`, // content after the root
		`</a>`,        // unmatched close
		`<a><!-- never closed`,
		`<a><b x='1`,
		`<a><` + strings.Repeat("n", encoding.MaxNameLen+1) + `/></a>`,
	}
	queries := []*Query{
		MustCompileRegex("a.*b", abc),   // registerless
		MustCompileRegex(".*a.*b", abc), // stackless
		MustCompileRegex(".*ab", abc),   // pushdown
	}
	mq, err := NewMultiQuery(queries...)
	if err != nil {
		t.Fatal(err)
	}
	opts := map[string]Options{
		"coded":    {},
		"earliest": {Earliest: true},
		"stack":    {ForceStack: true},
		"workers":  {Workers: 2},
	}
	for _, doc := range docs {
		want, wantErr := 0, error(nil)
		src := encoding.CheckBalance(encoding.NewXMLScanner(strings.NewReader(doc)))
		for {
			if _, err := src.Next(); err != nil {
				if err != io.EOF {
					wantErr = err
				}
				break
			}
			want++
		}
		check := func(name string, events int, err error) {
			t.Helper()
			if events != want || (err == nil) != (wantErr == nil) ||
				errors.Is(err, encoding.ErrMalformed) != errors.Is(wantErr, encoding.ErrMalformed) ||
				errors.Is(err, encoding.ErrLimit) != errors.Is(wantErr, encoding.ErrLimit) {
				t.Errorf("%.40q %s: %d events, error %v; scanner: %d events, error %v", doc, name, events, err, want, wantErr)
			}
		}
		for qi, q := range queries {
			for name, opt := range opts {
				st, err := q.SelectXML(strings.NewReader(doc), opt, nil)
				check(name+"/query"+string(rune('0'+qi)), st.Events, err)
			}
			// A sequential Recognize reports no event count: errors only.
			_, _, err := q.RecognizeEL(strings.NewReader(doc), Options{})
			check("recognize", want, err)
		}
		for name, opt := range opts {
			st, err := mq.SelectXML(strings.NewReader(doc), opt, nil)
			check("multi/"+name, st.Events, err)
		}
	}
}
