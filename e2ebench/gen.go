package main

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"

	"stackless/internal/tree"
)

// Seeded input generators. Every input is built as a tree.Node first (the
// oracle's data model) and then serialised; the serialiser adds what the
// event model drops (text, attributes, comments, JSON scalars), so the
// engine sees realistic bytes while the oracle sees the exact tree. All
// randomness comes from rand.Rand streams derived from the seed, so one
// seed always yields byte-identical inputs.

// catalogVocab is the catalog's element vocabulary (40 labels): the six
// the catalog queries name, then fillers drawn Zipf-skewed. It is larger
// than the 16-entry linear label cache of alphabet.Coder on purpose.
var catalogVocab = []string{
	"catalog", "item", "category", "name", "price", "discount",
	"sku", "title", "author", "brand", "color", "size", "weight", "stock",
	"rating", "review", "tag", "note", "vendor", "country", "currency",
	"image", "url", "date", "summary", "spec", "model", "unit", "code",
	"group", "region", "label", "batch", "series", "edition", "format",
	"origin", "grade", "lot", "warranty",
}

// msgVocab is the subscription messages' vocabulary; msgVocab[0] is the
// root label of every message.
var msgVocab = []string{
	"msg", "header", "from", "to", "subject", "body", "entry", "price",
	"qty", "tag", "ref", "id", "note", "status", "priority", "route",
	"topic", "attr", "value", "key", "meta", "part", "code", "group",
}

// jsonVocab is the JSON feed's vocabulary: the term encoding's synthetic
// root and array-element labels, then object keys.
var jsonVocab = []string{
	"$", "item", "items", "price", "tags", "name", "x", "y", "id", "ts",
	"kind", "qty", "sku", "title", "meta", "ref", "note", "vendor",
	"rating", "size", "color",
}

// jsonExtras is the index in jsonVocab of the first optional record key.
const jsonExtras = 11

var words = []string{
	"alpha", "bravo", "delta", "echo", "fox", "golf", "hotel", "india",
	"kilo", "lima", "mike", "nova", "oscar", "papa", "quartz", "romeo",
	"sierra", "tango", "umbra", "vivid", "whisky", "xray", "yankee", "zulu",
}

// newRand returns the rand stream number stream of a seed: independent
// streams keep, say, the decoration of a document from shifting its shape.
func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// zipf draws integers in [lo, hi] with a Zipf skew toward lo.
type zipf struct {
	z  *rand.Zipf
	lo int
}

func newZipf(r *rand.Rand, s float64, lo, hi int) zipf {
	return zipf{z: rand.NewZipf(r, s, 1, uint64(hi-lo)), lo: lo}
}

func (z zipf) next() int { return z.lo + int(z.z.Uint64()) }

// zipfStrata returns n values in [lo, hi] that follow the Zipf(s) law of
// newZipf at the midpoints of n equal-probability strata, shuffled by r.
// Every seed gets the same multiset of values in its own order, so a
// workload's volume and size mix do not drift with the seed while each
// message's content still does.
func zipfStrata(r *rand.Rand, s float64, lo, hi, n int) []int {
	cdf := make([]float64, hi-lo+1)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	out := make([]int, n)
	k := 0
	for i := range out {
		u := (float64(i) + 0.5) / float64(n) * sum
		for cdf[k] < u {
			k++
		}
		out[i] = lo + k
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// catalogGen builds catalog items: a Zipf-deep category chain whose every
// level has a name, a price, a discount on 40% of items, and a Zipf number
// of filler subtrees over a Zipf vocabulary.
type catalogGen struct {
	r      *rand.Rand
	depth  zipf // category nesting, 1..8
	fanout zipf // filler children per item, 0..8
	filler zipf // index into catalogVocab[6:] plus "name"
}

func newCatalogGen(r *rand.Rand) *catalogGen {
	return &catalogGen{
		r:      r,
		depth:  newZipf(r, 1.5, 1, 8),
		fanout: newZipf(r, 1.3, 0, 8),
		filler: newZipf(r, 1.1, 0, len(catalogVocab)-6),
	}
}

func (g *catalogGen) item() *tree.Node {
	top := tree.New("category", tree.New("name"))
	cur := top
	for i := g.depth.next(); i > 1; i-- {
		next := tree.New("category", tree.New("name"))
		cur.Children = append(cur.Children, next)
		cur = next
	}
	item := tree.New("item", top, tree.New("price"))
	if g.r.Intn(10) < 4 {
		item.Children = append(item.Children, tree.New("discount"))
	}
	for i := g.fanout.next(); i > 0; i-- {
		item.Children = append(item.Children, g.fillerNode(2))
	}
	return item
}

// fillerNode returns a filler subtree at most levels deep. Index 0 of the
// filler draw is "name", so names also occur outside categories.
func (g *catalogGen) fillerNode(levels int) *tree.Node {
	label := "name"
	if k := g.filler.next(); k > 0 {
		label = catalogVocab[5+k]
	}
	n := tree.New(label)
	if levels > 1 && g.r.Intn(10) < 3 {
		for i := 1 + g.r.Intn(3); i > 0; i-- {
			n.Children = append(n.Children, g.fillerNode(levels-1))
		}
	}
	return n
}

// genCatalog returns a catalog of at least nodes elements and its tree.
// The element count, not the byte size, is what the seed may not move:
// the engine's buffers grow by event count, so a byte target would let
// the seed decide which side of a growth step the document lands on.
func genCatalog(seed int64, nodes int) ([]byte, *tree.Node) {
	g := newCatalogGen(newRand(seed, 1))
	w := newXMLWriter(newRand(seed, 2), 40*nodes)
	root := tree.New("catalog")
	w.b.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- generated catalog -->\n<catalog>\n")
	for size := 1; size < nodes; {
		it := g.item()
		size += it.Size()
		root.Children = append(root.Children, it)
		w.node(it)
		w.b.WriteByte('\n')
	}
	w.b.WriteString("</catalog>\n")
	return w.b.Bytes(), root
}

// genMessage returns one subscription message of at least target bytes
// and its tree: a header, then a body of entries with Zipf depth and
// fanout over a Zipf label draw.
func genMessage(r *rand.Rand, target int) ([]byte, *tree.Node) {
	w := newXMLWriter(r, 2*target)
	pick := newZipf(r, 1.1, 6, len(msgVocab)-1)
	fan := newZipf(r, 1.4, 1, 6)
	var sub func(levels int) *tree.Node
	sub = func(levels int) *tree.Node {
		n := tree.New(msgVocab[pick.next()])
		if levels > 1 && r.Intn(10) < 4 {
			for i := fan.next(); i > 0; i-- {
				n.Children = append(n.Children, sub(levels-1))
			}
		}
		return n
	}
	header := tree.New("header", tree.New("from"), tree.New("to"), tree.New("subject"))
	body := tree.New("body")
	msg := tree.New("msg", header, body)
	// Grow the body until its serialisation reaches the target, then
	// write the whole message once.
	for w.b.Len() < target {
		e := sub(1 + r.Intn(5))
		body.Children = append(body.Children, e)
		w.node(e)
	}
	w.b.Reset()
	w.node(msg)
	return w.b.Bytes(), msg
}

// xmlWriter serialises trees as XML with text content, attributes and
// comments drawn from its own rand stream.
type xmlWriter struct {
	b *bytes.Buffer
	r *rand.Rand
}

func newXMLWriter(r *rand.Rand, capacity int) *xmlWriter {
	return &xmlWriter{b: bytes.NewBuffer(make([]byte, 0, capacity)), r: r}
}

func (w *xmlWriter) node(n *tree.Node) {
	b := w.b
	b.WriteByte('<')
	b.WriteString(n.Label)
	for i := w.r.Intn(4) - 1; i > 0; i-- {
		b.WriteString(" a")
		b.WriteString(strconv.Itoa(i))
		b.WriteString("=\"")
		b.WriteString(words[w.r.Intn(len(words))])
		b.WriteString("\"")
	}
	if len(n.Children) == 0 && w.r.Intn(8) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	if len(n.Children) == 0 {
		w.text()
	}
	for _, c := range n.Children {
		if w.r.Intn(40) == 0 {
			b.WriteString("<!-- ")
			b.WriteString(words[w.r.Intn(len(words))])
			b.WriteString(" -->")
		}
		w.node(c)
	}
	b.WriteString("</")
	b.WriteString(n.Label)
	b.WriteByte('>')
}

func (w *xmlWriter) text() {
	for i := 1 + w.r.Intn(5); i > 0; i-- {
		w.b.WriteString(words[w.r.Intn(len(words))])
		switch w.r.Intn(6) {
		case 0:
			w.b.WriteString(" &amp; ")
		case 1:
			w.b.WriteString(", ")
		default:
			w.b.WriteByte(' ')
		}
	}
	w.b.WriteString(strconv.Itoa(w.r.Intn(10000)))
}

// genJSONMessage returns one JSON feed message as a tree under the term
// encoding's conventions — root "$", array elements "item" — with at
// least about target bytes once serialised. Each record has a price, a
// tags array whose entries carry names, an x object holding y on half of
// the records, and Zipf-chosen extra keys.
func genJSONMessage(r *rand.Rand, target int) *tree.Node {
	extra := newZipf(r, 1.1, jsonExtras, len(jsonVocab)-1)
	items := tree.New("items")
	root := tree.New("$", tree.New("id"), tree.New("ts"), items)
	size := 40
	for size < target {
		rec := tree.New("item", tree.New("id"), tree.New("price"))
		tags := tree.New("tags")
		for i := r.Intn(3); i >= 0; i-- {
			tags.Children = append(tags.Children, tree.New("item", tree.New("name")))
		}
		rec.Children = append(rec.Children, tags)
		if r.Intn(2) == 0 {
			rec.Children = append(rec.Children, tree.New("x", tree.New("y"), tree.New("kind")))
		}
		// Extra keys: distinct within the record, as JSON object keys are.
		seen := map[string]bool{}
		for i := r.Intn(4); i > 0; i-- {
			k := jsonVocab[extra.next()]
			if seen[k] {
				continue
			}
			seen[k] = true
			if k == "meta" {
				rec.Children = append(rec.Children, tree.New(k, tree.New("name"), tree.New("price")))
			} else {
				rec.Children = append(rec.Children, tree.New(k))
			}
		}
		items.Children = append(items.Children, rec)
		size += 30 + 28*rec.Size()
	}
	return root
}

// writeJSON serialises a term-encoding tree: a node whose children are all
// "item" is an array, a node with other children an object, a leaf a
// scalar. The root "$" is the document's top-level object.
func writeJSON(b *bytes.Buffer, r *rand.Rand, n *tree.Node) {
	if len(n.Children) == 0 {
		if r.Intn(2) == 0 {
			b.WriteString(strconv.Itoa(r.Intn(100000)))
		} else {
			b.WriteByte('"')
			b.WriteString(words[r.Intn(len(words))])
			b.WriteByte('"')
		}
		return
	}
	if n.Children[0].Label == "item" {
		b.WriteByte('[')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			writeJSON(b, r, c)
		}
		b.WriteByte(']')
		return
	}
	b.WriteByte('{')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('"')
		b.WriteString(c.Label)
		b.WriteString("\": ")
		writeJSON(b, r, c)
	}
	b.WriteByte('}')
}
