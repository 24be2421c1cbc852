package maglev

// lookup maps a flow hash to a backend.
func (t *Table) lookup(flowHash uint64) Backend {
	return t.backends[t.index(flowHash)]
}
