package stackless

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/gen"
	"stackless/internal/obs"
)

// The overhead contract of the observability layer (DESIGN.md §9): with no
// collector attached the engine must not allocate — every hook is a nil
// check — and with one attached, the counters must agree between the
// sequential and chunk-parallel engines so the numbers mean the same thing
// regardless of how a run was scheduled.

// TestObsDisabledZeroAllocs pins the disabled path to zero allocations per
// evaluation, for every strategy, on both engine entry points. A regression
// here means an obs hook moved off the nil-check pattern.
func TestObsDisabledZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	events := encoding.Markup(gen.RandomTree(rng, abc, 200))
	src := encoding.NewSliceSource(events)
	queries := map[string]*Query{
		"registerless": MustCompileRegex("a.*b", abc),
		"stackless":    MustCompileRegex(".*a.*b", abc),
		"stack":        MustCompileRegex(".*ab", abc),
	}
	for name, q := range queries {
		ev, _, err := q.queryEvaluator(MarkupEncoding, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		core.Instrument(ev, nil)
		src.Rewind()
		if _, err := core.SelectObs(ev, nil, src, nil); err != nil { // warm-up: grow internal slices
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			src.Rewind()
			if _, err := core.SelectObs(ev, nil, src, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Select with nil collector allocates %.1f times per run, want 0", name, allocs)
		}

		src.Rewind()
		if _, err := core.SelectEarliestObs(ev, nil, src, nil); err != nil { // warm-up: lazy earliest-flag build
			t.Fatalf("%s earliest: %v", name, err)
		}
		allocs = testing.AllocsPerRun(50, func() {
			src.Rewind()
			if _, err := core.SelectEarliestObs(ev, nil, src, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: SelectEarliest with nil collector allocates %.1f times per run, want 0", name, allocs)
		}

		rec, _, err := q.elEvaluator(MarkupEncoding, true)
		if err != nil {
			t.Fatalf("%s EL: %v", name, err)
		}
		core.Instrument(rec, nil)
		src.Rewind()
		if _, err := core.RecognizeObs(rec, nil, src); err != nil {
			t.Fatalf("%s EL: %v", name, err)
		}
		allocs = testing.AllocsPerRun(50, func() {
			src.Rewind()
			if _, err := core.RecognizeObs(rec, nil, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Recognize with nil collector allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

// TestObsCollectorPublicParity runs the same documents sequentially and
// chunk-parallel through the public API and checks the collector totals are
// identical — events, matches, and the chunking composition invariant.
func TestObsCollectorPublicParity(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(43))
	for name, q := range map[string]*Query{
		"registerless": MustCompileRegex("a.*b", abc),
		"stackless":    MustCompileRegex(".*a.*b", abc),
	} {
		for i := 0; i < 25; i++ {
			doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(80)))
			seqC := NewCollector()
			seqStats, err := q.SelectXML(strings.NewReader(doc), Options{Collector: seqC}, nil)
			if err != nil {
				t.Fatal(err)
			}
			parC := NewCollector()
			parStats, err := q.SelectXML(strings.NewReader(doc), Options{Workers: 4, Collector: parC}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := seqC.Events.Load(), int64(seqStats.Events); got != want {
				t.Fatalf("%s doc %d: sequential collector Events = %d, Stats.Events = %d", name, i, got, want)
			}
			if got, want := seqC.Matches.Load(), int64(seqStats.Matches); got != want {
				t.Fatalf("%s doc %d: sequential collector Matches = %d, Stats.Matches = %d", name, i, got, want)
			}
			if seqC.Events.Load() != parC.Events.Load() || seqC.Matches.Load() != parC.Matches.Load() {
				t.Fatalf("%s doc %d: collector parity broken: seq events=%d matches=%d, parallel events=%d matches=%d",
					name, i, seqC.Events.Load(), seqC.Matches.Load(), parC.Events.Load(), parC.Matches.Load())
			}
			if parStats.Fallback == "" && parStats.Workers > 1 {
				if got := parC.SegmentEvents.Load() + parC.BoundaryEvents.Load(); got != parC.Events.Load() {
					t.Fatalf("%s doc %d: SegmentEvents+BoundaryEvents = %d, Events = %d", name, i, got, parC.Events.Load())
				}
				if parC.Chunks.Load() != int64(parStats.Chunks) {
					t.Fatalf("%s doc %d: collector Chunks = %d, Stats.Chunks = %d", name, i, parC.Chunks.Load(), parStats.Chunks)
				}
			}
			if parStats.Fallback == "short" && parStats.Chunks != 1 {
				t.Fatalf("%s doc %d: short fallback reports %d chunks", name, i, parStats.Chunks)
			}
		}
	}
}

// TestObsLatencyHistogramParity pins the latency histogram's counting
// convention on every instrumented emission path: exactly one observation
// per reported match — sequential coded, chunk-parallel, and earliest runs
// alike — with an earliest run additionally recording zero latency for
// every match (emission at the deciding event is the §14 contract).
func TestObsLatencyHistogramParity(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(53))
	for name, q := range map[string]*Query{
		"registerless": MustCompileRegex("a.*b", abc),
		"stackless":    MustCompileRegex(".*a.*b", abc),
		"stack":        MustCompileRegex(".*ab", abc),
	} {
		for i := 0; i < 15; i++ {
			doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(80)))
			for variant, opt := range map[string]Options{
				"sequential": {},
				"parallel":   {Workers: 4},
				"earliest":   {Earliest: true},
			} {
				c := NewCollector()
				opt.Collector = c
				stats, err := q.SelectXML(strings.NewReader(doc), opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := c.Latency.Count(), int64(stats.Matches); got != want {
					t.Fatalf("%s doc %d %s: latency count %d, matches %d", name, i, variant, got, want)
				}
				if variant == "earliest" && c.Latency.Sum() != 0 {
					t.Fatalf("%s doc %d: earliest run recorded latency sum %d, want 0", name, i, c.Latency.Sum())
				}
			}
		}
	}
}

// TestObsStatsCutPolicy checks the Stats surface of a parallel request: the
// policy name, the fallback reason for non-chunkable strategies, and the
// stack-depth histogram of the pushdown baseline.
func TestObsStatsCutPolicy(t *testing.T) {
	withProcs(t, 4)
	doc := "<a><a><b></b></a><b></b></a>"

	q := MustCompileRegex(".*a.*b", abc) // HAR: stackless machine, cuts at new minima
	c := NewCollector()
	stats, err := q.SelectXML(strings.NewReader(doc), Options{Workers: 2, Collector: c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != Stackless || stats.CutPolicy != "newmin" {
		t.Fatalf("stats = %+v, want stackless/newmin", stats)
	}
	if got := c.RunsByPolicy[core.CutNewMin].Load(); got != 1 {
		t.Fatalf("RunsByPolicy[newmin] = %d, want 1", got)
	}

	qs := MustCompileRegex(".*ab", abc) // not HAR: pushdown fallback
	c = NewCollector()
	stats, err = qs.SelectXML(strings.NewReader(doc), Options{Workers: 4, Collector: c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The pushdown is chunkable now (speculatively) but this stream is far
	// too deep for its chunk size: the run degrades sequentially and says
	// so ("deep", one chunk).
	if stats.Strategy != Stack || stats.CutPolicy != "boundeddepth" || stats.Fallback != "deep" || stats.Chunks != 1 {
		t.Fatalf("stack stats = %+v, want boundeddepth/deep on 1 chunk", stats)
	}
	if got := c.RunsByPolicy[core.CutBoundedDepth].Load(); got != 1 {
		t.Fatalf("RunsByPolicy[boundeddepth] = %d, want 1", got)
	}
	if c.StackFallbacks.Load() != 1 || c.SeqFallbacks.Load() != 1 {
		t.Fatalf("fallback counters: stack=%d seq=%d, want 1/1", c.StackFallbacks.Load(), c.SeqFallbacks.Load())
	}
	if c.StackPoolReuse.Load() == 0 {
		t.Fatal("pushdown run recorded no stack-pool activity")
	}
}

// TestObsMultiQueryCollector checks the MultiQuery accounting convention —
// every machine steps on every event, so Events counts events × queries in
// both modes — and that the parallel path times its merge phase.
func TestObsMultiQueryCollector(t *testing.T) {
	withProcs(t, 4)
	q1 := MustCompileRegex("a.*b", abc)
	q2 := MustCompileRegex(".*a.*b", abc)
	q3 := MustCompileRegex(".*ab", abc) // stack-only: sequential inside the fan-out
	mq, err := NewMultiQuery(q1, q2, q3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 10; i++ {
		doc := encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(60)))
		seqC := NewCollector()
		seqStats, err := mq.SelectXML(strings.NewReader(doc), Options{Collector: seqC}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := seqC.Events.Load(), int64(3*seqStats.Events); got != want {
			t.Fatalf("doc %d: sequential multi Events = %d, want %d (events × queries)", i, got, want)
		}
		parC := NewCollector()
		_, err = mq.SelectXML(strings.NewReader(doc), Options{Workers: 4, Collector: parC}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seqC.Events.Load() != parC.Events.Load() || seqC.Matches.Load() != parC.Matches.Load() {
			t.Fatalf("doc %d: multi parity broken: seq events=%d matches=%d, parallel events=%d matches=%d",
				i, seqC.Events.Load(), seqC.Matches.Load(), parC.Events.Load(), parC.Matches.Load())
		}
		if parC.Phases[obs.PhaseMerge].Count.Load() != 1 {
			t.Fatalf("doc %d: merge phase observed %d times, want 1", i, parC.Phases[obs.PhaseMerge].Count.Load())
		}
	}
}

// TestObsCollectorSnapshotPublic exercises the public aliases: a collector
// accumulated through Options surfaces its numbers via Snapshot and the
// expvar-compatible String.
func TestObsCollectorSnapshotPublic(t *testing.T) {
	q := MustCompileRegex(".*a.*b", abc)
	c := NewCollector()
	stats, err := q.SelectXML(strings.NewReader("<a><a><b></b></a></a>"), Options{Collector: c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap ObsSnapshot = c.Snapshot()
	if snap.Counters["events"] != int64(stats.Events) {
		t.Fatalf("snapshot events = %d, want %d", snap.Counters["events"], stats.Events)
	}
	if s := c.String(); !strings.Contains(s, `"events":`) {
		t.Fatalf("String() = %q, want expvar-style JSON", s)
	}
}

// TestObsQueryMultiParity: a Query run and a one-member MultiQuery run
// share core's sequential passes, so over the same document they leave
// identical collector snapshots — every counter and histogram, the
// machines' batched counters (register loads and compares, stack-pool
// reuse and misses) included — on every tier, coded and earliest alike.
func TestObsQueryMultiParity(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	docs := []string{catalogParityDoc}
	for i := 0; i < 8; i++ {
		docs = append(docs, encoding.XMLString(gen.RandomTree(rng, abc, 1+rng.Intn(80))))
	}
	catalog, err := CompileXPath("/catalog/item/category//name", []string{"catalog", "item", "category", "name", "price"})
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]*Query{
		"registerless": MustCompileRegex("a.*b", abc),
		"stackless":    MustCompileRegex(".*a.*b", abc),
		"stack":        MustCompileRegex(".*ab", abc),
		"catalog":      catalog,
	} {
		mq, err := NewMultiQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, earliest := range []bool{false, true} {
			machineCounters := int64(0)
			for i, doc := range docs {
				qc, mc := NewCollector(), NewCollector()
				qs, err := q.SelectXML(strings.NewReader(doc), Options{Earliest: earliest, Collector: qc}, nil)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := mq.SelectXML(strings.NewReader(doc), Options{Earliest: earliest, Collector: mc}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if qs.Events != ms.Events || qs.Matches != ms.Matches[0] {
					t.Fatalf("%s earliest=%v doc %d: Query stats %+v, MultiQuery stats %+v", name, earliest, i, qs, ms)
				}
				qsnap, msnap := qc.Snapshot(), mc.Snapshot()
				if !reflect.DeepEqual(qsnap, msnap) {
					t.Fatalf("%s earliest=%v doc %d: snapshots differ\nQuery:      %s\nMultiQuery: %s", name, earliest, i, qc, mc)
				}
				for _, k := range []string{"register_loads", "register_compares", "stack_pool_reuse", "stack_pool_misses"} {
					machineCounters += qsnap.Counters[k]
				}
			}
			if name != "registerless" && machineCounters == 0 {
				t.Errorf("%s earliest=%v: no machine counter was recorded; the parity check is vacuous", name, earliest)
			}
		}
	}
}

// catalogParityDoc is a small catalog document for the category//name
// query, on which the stackless machine loads and compares registers.
const catalogParityDoc = `<catalog><item><category><name/><price/><category><name/></category></category><name/></item>` +
	`<item><category><price/></category></item><item><name/><category><name/><name/></category></item></catalog>`
