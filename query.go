// Package stackless is a streaming tree-query engine implementing the PODS
// 2021 paper "Stackless Processing of Streamed Trees" (Barloy, Murlak,
// Paperman). It evaluates regular path queries (RPQs) and recognizes the
// tree languages EL ("some branch in L") and AL ("every branch in L") over
// streamed XML (markup encoding) and JSON-style (term encoding) documents
// using the cheapest machine the paper's characterization theorems allow:
//
//	registerless — a plain finite automaton (Theorem 3.2), when the
//	               query language is almost-reversible / E-flat / A-flat;
//	stackless    — a depth-register automaton with one counter and O(1)
//	               registers (Theorem 3.1), when the language is
//	               hierarchically almost-reversible (HAR);
//	stack        — the classical pushdown simulation, Θ(depth) memory,
//	               always available as a fallback.
//
// Queries are written as regular expressions over label paths, or in small
// XPath / JSONPath subsets (downward axes only, as in Example 2.12).
//
// Query sets evaluate together in one streaming pass through MultiQuery;
// compatible compiled machines are merged into product automata stepped
// once per event with per-query accept bits (DESIGN.md §13), so the cost
// of a set is close to one machine's, not the sum of its members'.
package stackless

import (
	"fmt"
	"sort"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/dfa"
	"stackless/internal/rex"
	"stackless/internal/stackeval"
)

// Encoding selects the serialization the evaluator consumes.
type Encoding int

// The two encodings of Section 2 and Section 4.2.
const (
	// MarkupEncoding: opening and closing tags both carry the label (XML).
	MarkupEncoding Encoding = iota
	// TermEncoding: only opening tags carry the label (JSON).
	TermEncoding
)

func (e Encoding) String() string {
	if e == TermEncoding {
		return "term"
	}
	return "markup"
}

// Strategy identifies the machine class used for an evaluation.
type Strategy int

// Strategies, from cheapest to most expensive.
const (
	Registerless Strategy = iota
	Stackless
	Stack
)

func (s Strategy) String() string {
	switch s {
	case Registerless:
		return "registerless"
	case Stackless:
		return "stackless"
	case Stack:
		return "stack"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Query is a compiled regular path query over a fixed label alphabet.
type Query struct {
	source string
	an     *classify.Analysis
	report *classify.Report
}

// CompileRegex compiles a regular expression over label paths (the syntax
// of internal/rex: «|» union, juxtaposition, «*», «+», «?», «.» any label,
// quoted 'label' for multi-character labels). The alphabet Γ is the set of
// labels the query ranges over; «.» expands to it, and labels must cover
// every symbol in the expression. Extra alphabet labels are allowed (and
// change the meaning of «.»).
func CompileRegex(expr string, labels []string) (*Query, error) {
	node, err := rex.Parse(expr)
	if err != nil {
		return nil, err
	}
	alph := alphabet.New(labels...)
	for _, s := range node.SymbolNames() {
		alph.Add(s)
	}
	d, err := rex.Compile(node, alph)
	if err != nil {
		return nil, err
	}
	an := classify.Analyze(d)
	return &Query{source: expr, an: an, report: an.Report()}, nil
}

// MustCompileRegex is CompileRegex, panicking on error.
func MustCompileRegex(expr string, labels []string) *Query {
	q, err := CompileRegex(expr, labels)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the source expression.
func (q *Query) String() string { return q.source }

// Alphabet returns the label alphabet Γ, sorted.
func (q *Query) Alphabet() []string {
	out := q.an.D.Alphabet.Symbols()
	sort.Strings(out)
	return out
}

// automaton exposes the minimal DFA for the benchmarks and tests inside
// this module.
func (q *Query) automaton() *dfa.DFA { return q.an.D }

// Classification reports which machine classes can realize the query and
// its associated tree languages, per Theorems 3.1, 3.2, B.1 and B.2.
type Classification struct {
	// Query evaluation (pre-selection semantics).
	Registerless     bool // markup encoding, finite automaton
	StacklessQuery   bool // markup encoding, depth-register automaton
	TermRegisterless bool // term encoding, finite automaton
	TermStackless    bool // term encoding, depth-register automaton
	// Tree languages.
	ELRegisterless bool // EL by a finite automaton (markup)
	ALRegisterless bool // AL by a finite automaton (markup)
	// Underlying syntactic classes (Definitions 3.4, 3.6, 3.9).
	AlmostReversible bool
	HAR              bool
	EFlat            bool
	AFlat            bool
	RTrivial         bool
	Reversible       bool
}

// Classify returns the full classification of the query.
func (q *Query) Classify() Classification {
	r := q.report
	return Classification{
		Registerless:     r.QLRegisterless(),
		StacklessQuery:   r.QLStackless(),
		TermRegisterless: r.TermQLRegisterless(),
		TermStackless:    r.TermQLStackless(),
		ELRegisterless:   r.ELRegisterless(),
		ALRegisterless:   r.ALRegisterless(),
		AlmostReversible: r.AlmostReversible,
		HAR:              r.HAR,
		EFlat:            r.EFlat,
		AFlat:            r.AFlat,
		RTrivial:         r.RTrivial,
		Reversible:       r.Reversible,
	}
}

// Report renders the classification as the table printed by cmd/classify.
func (q *Query) Report() string { return q.report.String() }

// Explain returns human-readable reasons, in the vocabulary of the paper's
// proofs, for every class the query's language misses — empty when the
// query is registerless under both encodings.
func (q *Query) Explain() []string { return q.an.Explanations(q.report) }

// queryEvaluator picks the cheapest machine for node selection. Every tier
// is a core.QueryMachine, so a Select run never leaves the coded pipeline
// for lack of a kernel.
func (q *Query) queryEvaluator(enc Encoding, allowStack bool) (core.QueryMachine, Strategy, error) {
	switch enc {
	case MarkupEncoding:
		if tag, err := core.RegisterlessQL(q.an); err == nil {
			return tag.Evaluator(), Registerless, nil
		}
		if ev, err := core.StacklessQL(q.an); err == nil {
			return ev, Stackless, nil
		}
	case TermEncoding:
		if tag, err := core.BlindRegisterlessQL(q.an); err == nil {
			return tag.Evaluator(), Registerless, nil
		}
		if ev, err := core.BlindStacklessQL(q.an); err == nil {
			return ev, Stackless, nil
		}
	}
	if !allowStack {
		return nil, Stack, fmt.Errorf("stackless: query %q is not stackless under the %s encoding (Theorem 3.1/B.2)", q.source, enc)
	}
	return stackeval.QL(q.an.D), Stack, nil
}

// elEvaluator picks the cheapest recognizer of EL.
func (q *Query) elEvaluator(enc Encoding, allowStack bool) (core.Evaluator, Strategy, error) {
	switch enc {
	case MarkupEncoding:
		if m, err := core.RegisterlessEL(q.an); err == nil {
			return m, Registerless, nil
		}
		if ev, err := core.StacklessQL(q.an); err == nil {
			return core.ELFromQL(ev), Stackless, nil
		}
	case TermEncoding:
		if m, err := core.BlindRegisterlessEL(q.an); err == nil {
			return m, Registerless, nil
		}
		if ev, err := core.BlindStacklessQL(q.an); err == nil {
			return core.ELFromQL(ev), Stackless, nil
		}
	}
	if !allowStack {
		return nil, Stack, fmt.Errorf("stackless: EL of %q needs a stack under the %s encoding", q.source, enc)
	}
	return stackeval.EL(q.an.D), Stack, nil
}

// alEvaluator picks the cheapest recognizer of AL.
func (q *Query) alEvaluator(enc Encoding, allowStack bool) (core.Evaluator, Strategy, error) {
	switch enc {
	case MarkupEncoding:
		if m, err := core.RegisterlessAL(q.an); err == nil {
			return m, Registerless, nil
		}
		if ev, err := core.StacklessQL(q.an); err == nil {
			return core.ALFromQL(ev), Stackless, nil
		}
	case TermEncoding:
		if m, err := core.BlindRegisterlessAL(q.an); err == nil {
			return m, Registerless, nil
		}
		if ev, err := core.BlindStacklessQL(q.an); err == nil {
			return core.ALFromQL(ev), Stackless, nil
		}
	}
	if !allowStack {
		return nil, Stack, fmt.Errorf("stackless: AL of %q needs a stack under the %s encoding", q.source, enc)
	}
	return stackeval.AL(q.an.D), Stack, nil
}
