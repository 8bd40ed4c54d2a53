// Package badmod is the escape-check negative fixture: a miniature kernel
// package whose //treelint:plain StepBatch allocates per batch, so the
// gate's escape check must fail on it. If allocgate ever reports this
// module escape-free, the gate is broken.
package badmod

// M is a toy machine with the same flat-table shape as the real kernels.
type M struct {
	tab   []int32
	state int32
	sink  []int32
}

// StepBatch copies the batch into a fresh heap slice every call: the
// escape the gate must catch (m.sink outlives the call, so the make
// cannot stay on the stack).
//
//treelint:plain
func (m *M) StepBatch(batch []int32) {
	buf := make([]int32, len(batch))
	copy(buf, batch)
	for _, e := range buf {
		m.state = m.tab[int32(len(m.tab)-1)&(m.state+e)]
	}
	m.sink = buf
}

// SelectBatch is the well-formed counterpart: it appends into the caller's
// buffer and keeps everything on the stack, so it must come out clean.
//
//treelint:plain
func (m *M) SelectBatch(batch []int32, hits []int32) []int32 {
	st := m.state
	for i := 0; i < len(batch); i++ {
		st = m.tab[int32(len(m.tab)-1)&(st+batch[i])]
		if st < 0 {
			hits = append(hits, int32(i))
		}
	}
	m.state = st
	return hits
}

// SimulateSegmentCoded allocates deliberately on an annotated line, the
// documented escape hatch: exempt, not a violation.
//
//treelint:plain
func (m *M) SimulateSegmentCoded(batch []int32) []int32 {
	//treelint:partial fixture: per-segment exit vector, exercises the exemption path
	exits := make([]int32, len(batch))
	for i, e := range batch {
		exits[i] = m.tab[int32(len(m.tab)-1)&e]
	}
	return exits
}
