package product

import (
	"sort"

	"stackless/internal/core"
	"stackless/internal/obs"
)

// Group is one product group of a plan: a compiled product plus the mapping
// from its mask bits back to the caller's query indices — a match whose
// acceptance bitset has bit i set belongs to query Queries[i]. It is the
// group type of core's coded pass, so a plan runs there as is.
type Group = core.ProductGroup

// Plan partitions a query set for evaluation: Groups run one-pass through
// their products, Loose queries (ascending) fan out exactly as before —
// singletons, non-tag families, and groups whose product blew the state
// cap.
type Plan struct {
	Groups []Group
	Loose  []int
}

// FanoutPlan returns the plan that products nothing: all n queries loose.
// It is the baseline the differential tests and benchmarks compare the
// product path against.
func FanoutPlan(n int) Plan {
	loose := make([]int, n)
	for i := range loose {
		loose[i] = i
	}
	return Plan{Loose: loose}
}

// BuildPlan groups a query set's evaluators into product groups. Two
// queries are compatible when their machines share family and cut policy;
// today that is exactly the tag-DFA family (registerless compilations, the
// only CutNone family) split by encoding — a markup machine and a term
// machine read different close events and never product together. Each
// bucket of two or more compatible machines is compiled (or fetched) via
// cache; on failure — typically ErrProductTooLarge — its members degrade to
// Loose, preserving today's fan-out behavior. maxStates <= 0 means
// core.DefaultProductMaxStates.
//
// The evaluators may already be instrumented: core.Instrument preserves
// evaluator identity, so the Machine accessor below still resolves. Groups
// formed are counted on c.ProductGroups (nil: uncounted).
func BuildPlan(evs []core.Evaluator, cache *Cache, maxStates int, c *obs.Collector) Plan {
	type bucket struct {
		idxs     []int
		machines []*core.TagDFA
	}
	var buckets [2]bucket // [0] markup encoding, [1] term encoding
	var plan Plan
	for i, ev := range evs {
		tm, ok := ev.(interface{ Machine() *core.TagDFA })
		if !ok {
			plan.Loose = append(plan.Loose, i)
			continue
		}
		m := tm.Machine()
		b := &buckets[0]
		if m.CloseAny != nil {
			b = &buckets[1]
		}
		b.idxs = append(b.idxs, i)
		b.machines = append(b.machines, m)
	}
	for _, b := range buckets {
		if len(b.idxs) < 2 {
			plan.Loose = append(plan.Loose, b.idxs...)
			continue
		}
		pd, order, err := cache.Get(b.machines, maxStates, c)
		if err != nil {
			plan.Loose = append(plan.Loose, b.idxs...)
			continue
		}
		qs := make([]int, len(order))
		for bit, pos := range order {
			qs[bit] = b.idxs[pos]
		}
		plan.Groups = append(plan.Groups, Group{Queries: qs, Machine: pd})
	}
	sort.Ints(plan.Loose)
	if c != nil {
		c.ProductGroups.Add(int64(len(plan.Groups)))
	}
	return plan
}
