package core

// MemoSizes reports how many curves the manager's table and how many
// allocations its memo hold, so external tests can tell that the keyed
// path was exercised.
func (m *Manager) MemoSizes() (curves, allocs int) {
	return len(m.memo.curves), len(m.memo.allocs)
}
