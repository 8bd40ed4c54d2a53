package stackless

import (
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"stackless/internal/encoding"
	"stackless/internal/gen"
)

// Options.Workers must never change observable results: matches, their
// order, and the Recognize verdicts are byte-identical to the sequential
// run for every strategy (chunk-parallel where the strategy supports it,
// silent sequential fallback where it does not).

// withProcs raises GOMAXPROCS for the duration of a test: worker counts
// are clamped to GOMAXPROCS, so tests asserting a real fan-out must run
// with enough (virtual) cores regardless of the host's.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func collectMatches(t *testing.T, q *Query, doc string, opt Options) ([]Match, Stats) {
	t.Helper()
	var out []Match
	stats, err := q.SelectXML(strings.NewReader(doc), opt, func(m Match) { out = append(out, m) })
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

func TestOptionsWorkersMatchesSequential(t *testing.T) {
	withProcs(t, 8)
	queries := map[string]*Query{
		"registerless": MustCompileRegex("a.*b", abc),
		"stackless":    MustCompileRegex(".*a.*b", abc),
		"stack":        MustCompileRegex(".*ab", abc), // pushdown: speculative or "deep" degrade
	}
	rng := rand.New(rand.NewSource(17))
	for name, q := range queries {
		for i := 0; i < 40; i++ {
			doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(60)))
			want, seqStats := collectMatches(t, q, doc, Options{})
			if seqStats.Workers != 1 {
				t.Fatalf("%s: sequential run reports %d workers", name, seqStats.Workers)
			}
			for _, w := range []int{2, 3, 8} {
				got, stats := collectMatches(t, q, doc, Options{Workers: w})
				if len(got) != len(want) {
					t.Fatalf("%s doc %d workers %d: %d matches, want %d", name, i, w, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s doc %d workers %d: match %d = %+v, want %+v", name, i, w, j, got[j], want[j])
					}
				}
				if stats.Matches != len(want) || stats.Events != seqStats.Events {
					t.Fatalf("%s doc %d workers %d: stats %+v vs sequential %+v", name, i, w, stats, seqStats)
				}
				if stats.Workers != w {
					t.Fatalf("%s: parallel run reports %d workers, want %d", name, stats.Workers, w)
				}
			}
		}
	}
}

func TestOptionsWorkersRecognize(t *testing.T) {
	withProcs(t, 8)
	q := MustCompileRegex(".*a.*b", abc)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(40)))
		for _, rec := range []func(Options) (bool, Stats, error){
			func(o Options) (bool, Stats, error) { return q.RecognizeEL(strings.NewReader(doc), o) },
			func(o Options) (bool, Stats, error) { return q.RecognizeAL(strings.NewReader(doc), o) },
		} {
			want, _, err := rec(Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 8} {
				got, _, err := rec(Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("doc %d workers %d: %v, want %v", i, w, got, want)
				}
			}
		}
	}
}

// shallowDocs is one shallow document (depth 3, 82 events) in both
// encodings: deep enough to exercise every tier, shallow enough that the
// pushdown's speculative chunking is viable at Workers=2.
var shallowDocs = []struct {
	enc Encoding
	doc string
}{
	{MarkupEncoding, "<a>" + strings.Repeat("<b><c/></b>", 20) + "</a>"},
	{TermEncoding, "a{" + strings.Repeat("b{c{}}", 20) + "}"},
}

// tierQueries are one query per tier, under both encodings and for QL, EL
// and AL alike (over {a,b,c}).
var tierQueries = []struct {
	regex string
	tier  Strategy
}{
	{"a.*b", Registerless},
	{".*a.*b", Stackless},
	{".*ab", Stack},
}

// TestRecognizeStats pins what Stats reports for Recognize over every tier,
// both languages and both encodings, sequentially and at Workers=2. The
// registerless recognizers (the synopsis machine and its AL negation) are
// not chunkable and run coded with the "strategy" fallback; the stackless
// and stack tiers run the EL/AL wrappers, which chunk but have no coded
// kernels.
func TestRecognizeStats(t *testing.T) {
	withProcs(t, 8)
	for _, tq := range tierQueries {
		q := MustCompileRegex(tq.regex, abc)
		for _, sd := range shallowDocs {
			recs := map[string]func(io.Reader, Options) (bool, Stats, error){"EL": q.RecognizeEL, "AL": q.RecognizeAL}
			if sd.enc == TermEncoding {
				recs = map[string]func(io.Reader, Options) (bool, Stats, error){"EL": q.RecognizeELTerm, "AL": q.RecognizeALTerm}
			}
			for lang, rec := range recs {
				name := tq.regex + "/" + lang + "/" + sd.enc.String()
				want, seq, err := rec(strings.NewReader(sd.doc), Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				wantPipe := PipelineString
				if tq.tier == Registerless {
					wantPipe = PipelineCoded
				}
				if seq.Strategy != tq.tier || seq.Pipeline != wantPipe || seq.Workers != 1 || seq.Chunks != 1 || seq.CutPolicy != "" || seq.Fallback != "" {
					t.Errorf("%s Workers=1: stats %+v", name, seq)
				}
				got, par, err := rec(strings.NewReader(sd.doc), Options{Workers: 2})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got != want {
					t.Errorf("%s Workers=2: %v, sequential %v", name, got, want)
				}
				if par.Strategy != tq.tier || par.Pipeline != wantPipe {
					t.Errorf("%s Workers=2: stats %+v", name, par)
				}
				switch tq.tier {
				case Registerless:
					if par.Fallback != "strategy" || par.Chunks != 1 || par.Workers != 1 || par.CutPolicy != "" {
						t.Errorf("%s Workers=2: want a sequential strategy fallback, got %+v", name, par)
					}
				case Stackless:
					if par.Fallback != "" || par.Chunks != 2 || par.Workers != 2 || par.CutPolicy != "newmin" || par.Events != 82 {
						t.Errorf("%s Workers=2: want an exact chunked run, got %+v", name, par)
					}
				case Stack:
					if par.Fallback != "speculative" || par.Chunks != 2 || par.Workers != 2 || par.CutPolicy != "boundeddepth" || par.Events != 82 {
						t.Errorf("%s Workers=2: want a speculative chunked run, got %+v", name, par)
					}
				}
			}
		}
	}
}

// TestSelectPipelineAlwaysCoded: every query machine compiles, so Select
// and MultiQuery run the coded pipeline on every tier and encoding,
// sequentially and chunked, unless a sequential run asks for Earliest.
func TestSelectPipelineAlwaysCoded(t *testing.T) {
	withProcs(t, 8)
	qs := make([]*Query, len(tierQueries))
	for i, tq := range tierQueries {
		qs[i] = MustCompileRegex(tq.regex, abc)
	}
	mq, err := NewMultiQuery(qs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range shallowDocs {
		for _, workers := range []int{1, 2} {
			for _, earliest := range []bool{false, true} {
				opt := Options{Workers: workers, Earliest: earliest}
				want := PipelineCoded
				if earliest && workers == 1 {
					want = PipelineString
				}
				for i, q := range qs {
					sel := q.SelectXML
					if sd.enc == TermEncoding {
						sel = q.SelectTerm
					}
					st, err := sel(strings.NewReader(sd.doc), opt, nil)
					if err != nil {
						t.Fatal(err)
					}
					if st.Strategy != tierQueries[i].tier || st.Pipeline != want {
						t.Errorf("%s %s %+v: strategy %v pipeline %v, want %v %v", q, sd.enc, opt, st.Strategy, st.Pipeline, tierQueries[i].tier, want)
					}
				}
				msel := mq.SelectXML
				if sd.enc == TermEncoding {
					msel = mq.SelectTerm
				}
				ms, err := msel(strings.NewReader(sd.doc), opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if ms.Pipeline != want {
					t.Errorf("MultiQuery %s %+v: pipeline %v, want %v", sd.enc, opt, ms.Pipeline, want)
				}
			}
		}
	}
}

func TestMultiQueryWorkersMatchesSequential(t *testing.T) {
	withProcs(t, 8)
	q1 := MustCompileRegex("a.*b", abc)
	q2 := MustCompileRegex(".*a.*b", abc)
	q3 := MustCompileRegex(".*ab", abc) // stack-only: sequential inside the fan-out
	mq, err := NewMultiQuery(q1, q2, q3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 30; i++ {
		doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(60)))
		var want []MultiMatch
		seqStats, err := mq.SelectXML(strings.NewReader(doc), Options{}, func(m MultiMatch) { want = append(want, m) })
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 8} {
			var got []MultiMatch
			stats, err := mq.SelectXML(strings.NewReader(doc), Options{Workers: w}, func(m MultiMatch) { got = append(got, m) })
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("doc %d workers %d: %d matches, want %d", i, w, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("doc %d workers %d: match %d = %+v, want %+v (emission order must be preserved)", i, w, j, got[j], want[j])
				}
			}
			if stats.Events != seqStats.Events || stats.Workers != w {
				t.Fatalf("doc %d workers %d: stats %+v vs sequential %+v", i, w, stats, seqStats)
			}
			for qi := range stats.Matches {
				if stats.Matches[qi] != seqStats.Matches[qi] {
					t.Fatalf("doc %d workers %d: per-query matches %v vs %v", i, w, stats.Matches, seqStats.Matches)
				}
			}
		}
	}
}

// TestWorkersClampedToGOMAXPROCS: requesting more workers than cores runs
// with the effective count (extra chunks past the core count only cost
// join overhead — EXPERIMENTS.md), with matches unchanged and Stats
// reporting the clamped value.
func TestWorkersClampedToGOMAXPROCS(t *testing.T) {
	q := MustCompileRegex(".*a.*b", abc)
	rng := rand.New(rand.NewSource(31))
	doc := encoding.XMLString(gen.RandomTree(rng, abc, 60))
	withProcs(t, 8)
	want, _ := collectMatches(t, q, doc, Options{})

	withProcs(t, 1)
	got, stats := collectMatches(t, q, doc, Options{Workers: 8})
	if stats.Workers != 1 || stats.Fallback != "" || stats.Chunks != 1 {
		t.Fatalf("1 core, 8 requested: stats %+v, want a sequential run with Workers=1", stats)
	}
	if stats.Pipeline != PipelineCoded {
		t.Fatalf("stackless sequential run reports pipeline %q, want coded", stats.Pipeline)
	}
	if len(got) != len(want) {
		t.Fatalf("clamped run: %d matches, want %d", len(got), len(want))
	}

	withProcs(t, 2)
	got, stats = collectMatches(t, q, doc, Options{Workers: 8})
	if stats.Workers != 2 {
		t.Fatalf("2 cores, 8 requested: Stats.Workers = %d, want 2", stats.Workers)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("clamped parallel run: match %d = %+v, want %+v", j, got[j], want[j])
		}
	}

	mq, err := NewMultiQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, 1)
	mstats, err := mq.SelectXML(strings.NewReader(doc), Options{Workers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mstats.Workers != 1 {
		t.Fatalf("multi on 1 core: Workers = %d, want 1", mstats.Workers)
	}
	if mstats.Pipeline != PipelineCoded {
		t.Fatalf("multi sequential pipeline = %q, want coded", mstats.Pipeline)
	}
}

func TestWorkersMalformedInputStillRejected(t *testing.T) {
	withProcs(t, 4)
	q := MustCompileRegex("a.*b", abc)
	for _, doc := range []string{"<a><b></b>", "<a></a><b></b>"} {
		_, seqErr := q.SelectXML(strings.NewReader(doc), Options{}, nil)
		_, parErr := q.SelectXML(strings.NewReader(doc), Options{Workers: 4}, nil)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("doc %q: sequential err %v, parallel err %v", doc, seqErr, parErr)
		}
		if seqErr == nil {
			t.Fatalf("doc %q: malformed input accepted", doc)
		}
	}
}
