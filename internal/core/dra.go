package core

import (
	"fmt"
	"math/bits"

	"stackless/internal/alphabet"
	"stackless/internal/encoding"
	"stackless/internal/obs"
)

// RegSet is a bitset of registers (Ξ in Definition 2.1); register i is the
// bit 1<<i. At most 16 registers are supported in the table representation.
type RegSet uint16

// Has reports whether register i is in the set.
func (s RegSet) Has(i int) bool { return s&(1<<i) != 0 }

// With returns the set extended with register i.
func (s RegSet) With(i int) RegSet { return s | 1<<i }

// count returns the number of registers in the set.
func (s RegSet) count() int { return bits.OnesCount16(uint16(s)) }

// Transition is the output of the transition function δ: the registers to
// load with the current depth, and the successor state.
type Transition struct {
	Load RegSet
	Next int
}

// FullRegSet returns the set of all regs registers.
func FullRegSet(regs int) RegSet { return RegSet(1<<uint(regs)) - 1 }

// EachFeasibleMask calls f for every feasible (X≤, X≥) mask pair over regs
// registers. A pair is feasible when le|ge covers every register: after any
// depth update each register value is ≤, ≥ or both of the current depth
// (Definition 2.1), so exactly the 3^regs covering pairs can occur in a run.
func EachFeasibleMask(regs int, f func(le, ge RegSet)) {
	full := FullRegSet(regs)
	for le := RegSet(0); le <= full; le++ {
		for ge := RegSet(0); ge <= full; ge++ {
			if le|ge != full {
				continue
			}
			f(le, ge)
		}
	}
}

// DRA is a depth-register automaton in table form, following Definition 2.1
// exactly: δ : Q × (Γ ∪ Γ̄) × 2^Ξ × 2^Ξ → 2^Ξ × Q.
//
// The table is indexed by (state, tag, X≤ mask, X≥ mask), where tag is
// 2·sym for the opening tag of symbol sym and 2·sym+1 for its closing tag.
// Entries for infeasible (X≤, X≥) combinations are never consulted.
type DRA struct {
	Alphabet *alphabet.Alphabet
	States   int
	Start    int
	Accept   []bool
	Regs     int
	table    []Transition
	set      []uint64 // bitmap over table: entries explicitly SetTransition'ed
}

// MaxTableEntries caps the transition-table size of NewDRA. The table has
// states·2·|Γ|·2^(2·regs) entries, so the register count alone can push an
// innocent-looking machine into multi-GiB territory (regs = 10 already
// costs 2^20 entries per state and tag). 1<<26 entries is ~1 GiB of table.
const MaxTableEntries = 1 << 26

// TableEntries returns the transition-table size of a DRA with the given
// dimensions, and whether it is within MaxTableEntries. Negative dimensions
// and register counts above 16 are reported as oversized.
func TableEntries(states, alphSize, regs int) (entries uint64, ok bool) {
	if states < 0 || alphSize < 0 || regs < 0 || regs > 16 {
		return 0, false
	}
	if states > MaxTableEntries || alphSize > MaxTableEntries {
		return 1 << 63, false // saturated: the product below could overflow
	}
	entries = uint64(states) * 2 * uint64(alphSize)
	masks := uint64(1) << uint(2*regs)
	if entries == 0 {
		return 0, true
	}
	if masks > (1<<62)/entries {
		return 1 << 63, false // saturated: far beyond any cap
	}
	entries *= masks
	return entries, entries <= MaxTableEntries
}

// NewDRA allocates a DRA with all transitions self-looping on state 0 with
// no loads; callers fill entries with SetTransition. It panics if the
// transition table would exceed MaxTableEntries; callers with dynamic
// dimensions (e.g. FormalDRA) should pre-check with TableEntries and
// return an error instead.
func NewDRA(alph *alphabet.Alphabet, states, start, regs int) *DRA {
	if regs < 0 || regs > 16 {
		panic("core: register count must be between 0 and 16 in table DRAs")
	}
	entries, ok := TableEntries(states, alph.Size(), regs)
	if !ok {
		panic(fmt.Sprintf("core: DRA table with %d states, %d symbols and %d registers needs %d entries, above the %d cap",
			states, alph.Size(), regs, entries, MaxTableEntries))
	}
	d := &DRA{
		Alphabet: alph,
		States:   states,
		Start:    start,
		Accept:   make([]bool, states),
		Regs:     regs,
	}
	d.table = make([]Transition, entries)
	d.set = make([]uint64, (entries+63)/64)
	return d
}

func (d *DRA) index(q, sym int, closing bool, le, ge RegSet) int {
	tag := 2 * sym
	if closing {
		tag++
	}
	r := uint(d.Regs)
	return ((q*2*d.Alphabet.Size()+tag)<<(2*r) | int(le)<<r | int(ge))
}

// SetTransition defines δ(q, tag, X≤, X≥) = (load, next) and records the
// entry as explicitly set (see WasSet).
func (d *DRA) SetTransition(q, sym int, closing bool, le, ge RegSet, load RegSet, next int) {
	i := d.index(q, sym, closing, le, ge)
	d.table[i] = Transition{Load: load, Next: next}
	d.set[i/64] |= 1 << uint(i%64)
}

// WasSet reports whether the entry was explicitly defined via SetTransition
// (directly or through the SetForAllTests helpers), as opposed to still
// holding the NewDRA default. The linter uses this to distinguish intended
// transitions from accidental reliance on the zero default.
func (d *DRA) WasSet(q, sym int, closing bool, le, ge RegSet) bool {
	i := d.index(q, sym, closing, le, ge)
	return d.set[i/64]&(1<<uint(i%64)) != 0
}

// TableLen returns the allocated transition-table length, for structural
// validation by the linter.
func (d *DRA) TableLen() int { return len(d.table) }

// SetForAllTests defines the same transition for every feasible (X≤, X≥)
// combination — convenience for transitions that ignore the registers.
func (d *DRA) SetForAllTests(q, sym int, closing bool, load RegSet, next int) {
	EachFeasibleMask(d.Regs, func(le, ge RegSet) {
		d.SetTransition(q, sym, closing, le, ge, load, next)
	})
}

// SetForAllTestsRestricted is SetForAllTests with the load set extended by
// X≥ \ X≤ in every entry, so the resulting transitions satisfy the
// restriction of Section 2.2. Use it for transitions whose register-test
// combinations with values above the current depth are either unreachable
// or may safely forget those values.
func (d *DRA) SetForAllTestsRestricted(q, sym int, closing bool, load RegSet, next int) {
	EachFeasibleMask(d.Regs, func(le, ge RegSet) {
		d.SetTransition(q, sym, closing, le, ge, load|(ge&^le), next)
	})
}

// Transition looks up δ(q, tag, X≤, X≥).
func (d *DRA) Transition(q, sym int, closing bool, le, ge RegSet) Transition {
	return d.table[d.index(q, sym, closing, le, ge)]
}

// IsRestricted reports whether the automaton is restricted in the sense of
// Section 2.2: every transition overwrites all registers storing values
// strictly greater than the current depth, i.e. X≥ \ X≤ ⊆ Y.
func (d *DRA) IsRestricted() bool {
	for q := 0; q < d.States; q++ {
		for sym := 0; sym < d.Alphabet.Size(); sym++ {
			for _, closing := range []bool{false, true} {
				ok := true
				EachFeasibleMask(d.Regs, func(le, ge RegSet) {
					tr := d.Transition(q, sym, closing, le, ge)
					if ge&^le&^tr.Load != 0 {
						ok = false
					}
				})
				if !ok {
					return false
				}
			}
		}
	}
	return true
}

// Config is a DRA configuration (state, current depth, register values).
type Config struct {
	State int
	Depth int
	Regs  []int
}

// InitialConfig returns (q_init, 0, 0̄).
func (d *DRA) InitialConfig() Config {
	return Config{State: d.Start, Depth: 0, Regs: make([]int, d.Regs)}
}

// StepConfig advances a configuration by one event, per Definition 2.1:
// the depth changes first, then the register comparisons are evaluated
// against the new depth, then loads store the new depth.
func (d *DRA) StepConfig(c Config, e encoding.Event) (Config, error) {
	sym, ok := d.Alphabet.ID(e.Label)
	if !ok {
		return c, fmt.Errorf("core: label %q outside DRA alphabet %s", e.Label, d.Alphabet)
	}
	closing := e.Kind == encoding.Close
	if closing {
		c.Depth--
	} else {
		c.Depth++
	}
	var le, ge RegSet
	for i := 0; i < d.Regs; i++ {
		if c.Regs[i] <= c.Depth {
			le = le.With(i)
		}
		if c.Regs[i] >= c.Depth {
			ge = ge.With(i)
		}
	}
	tr := d.Transition(c.State, sym, closing, le, ge)
	c.State = tr.Next
	for i := 0; i < d.Regs; i++ {
		if tr.Load.Has(i) {
			c.Regs[i] = c.Depth
		}
	}
	return c, nil
}

// draEvaluator adapts a table DRA to the Evaluator interface. Events with
// labels outside the alphabet poison the run (never accepting), matching
// the convention that such trees are outside every class under study.
type draEvaluator struct {
	d        *DRA
	cfg      Config
	poisoned bool

	// obs, when non-nil, receives register loads and comparison counts.
	// Both Step and stepSeg batch them in the plain fields below (no
	// atomics per event); flushObs drains them at run end (sequential) or
	// segment end (chunk-parallel).
	obs      *obs.Collector
	compares int64
	loads    int64

	// Chunk-parallel state (see chunk.go): whether the evaluator is inside
	// a segment simulation, which registers still hold unknown entry values,
	// and the cached cut policy.
	seg      bool
	stale    RegSet
	cut      CutPolicy
	cutKnown bool
}

// SetObs implements Instrumented.
func (ev *draEvaluator) SetObs(c *obs.Collector) { ev.obs = c }

// flushObs reports the batched comparison and load counts; see obsFlusher.
func (ev *draEvaluator) flushObs() {
	if ev.obs != nil {
		ev.obs.RegisterCompares.Add(ev.compares)
		ev.obs.RegisterLoads.Add(ev.loads)
	}
	ev.compares, ev.loads = 0, 0
}

// Evaluator returns a fresh streaming evaluator for the automaton. Under
// the markup encoding Close events must carry labels; the term encoding is
// not supported by table DRAs (use the compiled blind evaluators instead).
func (d *DRA) Evaluator() Evaluator {
	compileHook(d)
	return &draEvaluator{d: d, cfg: d.InitialConfig()}
}

func (ev *draEvaluator) Reset() {
	ev.cfg = ev.d.InitialConfig()
	ev.poisoned = false
	ev.seg = false
	ev.stale = 0
	ev.compares, ev.loads = 0, 0
}

func (ev *draEvaluator) Step(e encoding.Event) {
	if ev.poisoned {
		return
	}
	if ev.seg {
		ev.stepSeg(e)
		return
	}
	cfg, err := ev.d.StepConfig(ev.cfg, e)
	if err != nil {
		ev.poisoned = true
		return
	}
	// Definition 2.1 evaluates both masks over every register. Loads are
	// not distinguishable from the outside here (StepConfig writes the
	// register file in place); stepSeg counts them where the transition's
	// load set is visible.
	ev.compares += int64(2 * ev.d.Regs)
	ev.cfg = cfg
}

func (ev *draEvaluator) Accepting() bool {
	return !ev.poisoned && ev.d.Accept[ev.cfg.State]
}

// CodeAlphabet implements BatchEvaluator.
func (ev *draEvaluator) CodeAlphabet() *alphabet.Alphabet { return ev.d.Alphabet }

// b2i is the branchless bool→int lowering (the compiler emits SETcc).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// StepBatch implements BatchEvaluator: StepConfig inlined over the batch —
// the depth update, the register compares (lowered to branchless mask
// builds over a range loop) and the table lookup all on the dense Sym, no
// per-event map access. Only valid outside segment simulation (the coded
// drivers Reset first, which clears segment mode). Compares are counted
// exactly as Step does — 2·Regs per non-poisoned event — and loads stay
// uncounted on the sequential path, also as Step does. The uint guard on
// the table index is the BCE shape cmd/allocgate enforces; it cannot fail on
// a table tablecheck proved well formed, and poisons on a corrupted one.
//
//treelint:plain
func (ev *draEvaluator) StepBatch(batch []encoding.CodedEvent) {
	if ev.poisoned {
		return
	}
	d := ev.d
	k := d.Alphabet.Size()
	r := uint(d.Regs)
	table := d.table
	cinc := int64(2 * d.Regs)
	state, depth := ev.cfg.State, ev.cfg.Depth
	regs := ev.cfg.Regs
	compares := ev.compares
	for _, e := range batch {
		if int(e.Sym) >= k {
			ev.poisoned = true
			break
		}
		depth += 1 - 2*int(e.Kind)
		var le, ge RegSet
		for i, rv := range regs {
			le |= RegSet(b2i(rv <= depth)) << uint(i)
			ge |= RegSet(b2i(rv >= depth)) << uint(i)
		}
		tag := 2*int(e.Sym) + int(e.Kind)
		j := uint(state*2*k+tag)<<(2*r) | uint(le)<<r | uint(ge)
		if j >= uint(len(table)) {
			ev.poisoned = true
			break
		}
		tr := table[j]
		state = tr.Next
		for i := range regs {
			if tr.Load.Has(i) {
				regs[i] = depth
			}
		}
		compares += cinc
	}
	ev.cfg.State, ev.cfg.Depth = state, depth
	ev.compares = compares
}

// SelectBatch implements BatchEvaluator. Index guards as in StepBatch.
//
//treelint:plain
func (ev *draEvaluator) SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32 {
	if ev.poisoned {
		return hits
	}
	d := ev.d
	k := d.Alphabet.Size()
	r := uint(d.Regs)
	table := d.table
	cinc := int64(2 * d.Regs)
	acc := d.Accept
	state, depth := ev.cfg.State, ev.cfg.Depth
	regs := ev.cfg.Regs
	compares := ev.compares
	for bi, e := range batch {
		if int(e.Sym) >= k {
			ev.poisoned = true
			break
		}
		depth += 1 - 2*int(e.Kind)
		var le, ge RegSet
		for i, rv := range regs {
			le |= RegSet(b2i(rv <= depth)) << uint(i)
			ge |= RegSet(b2i(rv >= depth)) << uint(i)
		}
		tag := 2*int(e.Sym) + int(e.Kind)
		j := uint(state*2*k+tag)<<(2*r) | uint(le)<<r | uint(ge)
		if j >= uint(len(table)) {
			ev.poisoned = true
			break
		}
		tr := table[j]
		state = tr.Next
		for i := range regs {
			if tr.Load.Has(i) {
				regs[i] = depth
			}
		}
		compares += cinc
		if e.Kind == encoding.Open {
			if a := uint(state); a < uint(len(acc)) && acc[a] {
				hits = append(hits, int32(bi))
			}
		}
	}
	ev.cfg.State, ev.cfg.Depth = state, depth
	ev.compares = compares
	return hits
}
