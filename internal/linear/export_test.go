package linear

// weakCount reports the current number of weak handles.
func (r Rc[T]) weakCount() int64 {
	if r.box == nil {
		return 0
	}
	return max(r.box.weak.Load()-1, 0)
}

// alive reports whether the value is still strongly referenced.
func (w Weak[T]) alive() bool {
	return w.box != nil && w.box.strong.Load() > 0
}
