// Package badmod is the bounds-check negative fixture: a miniature kernel
// package whose //treelint:plain StepBatch is written to defeat
// bounds-check elimination, so the gate's bounds check must fail on it. If
// allocgate ever reports this module bounds-check-free, the gate is broken.
package badmod

// M is a toy machine with the same flat-table shape as the real kernels.
type M struct {
	tab    []int32
	state  int32
	stride int32
}

// StepBatch indexes the table with an unproven bound: the compiler cannot
// eliminate the check, which is exactly what the gate must catch.
//
//treelint:plain
func (m *M) StepBatch(batch []int32) {
	st := m.state
	for _, e := range batch {
		st = m.tab[st*m.stride+e]
	}
	m.state = st
}

// SelectBatch is the well-formed counterpart: the uint guard hoists the
// proof the way the real kernels do, so it must come out clean.
//
//treelint:plain
func (m *M) SelectBatch(batch []int32, hits []int32) []int32 {
	tab := m.tab
	st := m.state
	stride := m.stride
	for i := 0; i < len(batch); i++ {
		idx := uint(st*stride + batch[i])
		if idx < uint(len(tab)) {
			st = tab[idx]
		} else {
			st = -1
		}
		if st < 0 {
			hits = append(hits, int32(i))
		}
	}
	m.state = st
	return hits
}

// SimulateSegmentCoded is deliberately exempt.
//
//treelint:partial fixture kernel exempted to exercise the partial path
func (m *M) SimulateSegmentCoded(batch []int32) int32 {
	for _, e := range batch {
		m.state = m.tab[e]
	}
	return m.state
}
