package ifc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/minirust"
)

// Violation is one statically detected information-flow violation: data
// whose label (joined with the program counter) exceeds the bound of the
// channel it reaches.
type Violation struct {
	Pos     minirust.Pos
	Sink    string       // "println" or "assert_label_max"
	Label   string       // effective label of the flowing data
	Bound   string       // the channel/assertion bound
	TaintAt minirust.Pos // where the data acquired its label
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s data (tainted at %s) flows to %s with bound %s",
		v.Pos, v.Label, v.TaintAt, v.Sink, v.Bound)
}

// AnalysisError is a limitation or misuse detected during analysis (e.g.
// an unknown label name).
type AnalysisError struct {
	Pos minirust.Pos
	Msg string
}

func (e *AnalysisError) Error() string { return fmt.Sprintf("%s: ifc: %s", e.Pos, e.Msg) }

// Result is the analysis outcome.
type Result struct {
	Violations []Violation
	// SummaryHits counts function analyses served from the summary cache
	// (the paper's compositional-reasoning payoff).
	SummaryHits   int
	SummaryMisses int
}

// OK reports whether the program is verified leak-free.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Options tunes the analysis.
type Options struct {
	// DisableSummaries turns off per-(function, argument-label) summary
	// memoization, re-analyzing callee bodies at every call site. This
	// exists to measure the paper's compositional-reasoning claim ("the
	// effect of every function on security labels ... can be summarized
	// by analyzing the code of the function in isolation"): without
	// summaries the analysis cost tracks the number of *call paths*,
	// with them the number of distinct (function, input) pairs.
	DisableSummaries bool
}

// Analyze runs the abstract interpretation over a type- and borrow-checked
// program, starting from main, and returns every violation found.
func Analyze(c *minirust.Checked, lat *Lattice) (*Result, error) {
	return AnalyzeOpts(c, lat, Options{})
}

// AnalyzeOpts is Analyze with explicit options.
func AnalyzeOpts(c *minirust.Checked, lat *Lattice, opts Options) (*Result, error) {
	a := &analyzer{
		checked:     c,
		lat:         lat,
		summaries:   make(map[string]*summary),
		seen:        make(map[string]bool),
		noSummaries: opts.DisableSummaries,
	}
	// Validate label annotations up front.
	for _, name := range c.Prog.Order {
		if err := a.validateLabels(c.Prog.Funcs[name].Body); err != nil {
			return nil, err
		}
	}
	main := c.Prog.Funcs["main"]
	_, err := a.analyzeCall(main, nil, lat.Bottom())
	if err != nil {
		return nil, err
	}
	// Dedupe: without memoization the same static violation is rediscovered
	// once per call path; report each (site, sink) once.
	seen := make(map[string]bool, len(a.violations))
	uniq := a.violations[:0]
	for _, v := range a.violations {
		k := fmt.Sprintf("%s|%s|%s|%s", v.Pos, v.Sink, v.Label, v.Bound)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, v)
		}
	}
	a.violations = uniq
	sort.Slice(a.violations, func(i, j int) bool {
		if a.violations[i].Pos.Line != a.violations[j].Pos.Line {
			return a.violations[i].Pos.Line < a.violations[j].Pos.Line
		}
		return a.violations[i].Pos.Col < a.violations[j].Pos.Col
	})
	return &Result{Violations: a.violations, SummaryHits: a.hits, SummaryMisses: a.misses}, nil
}

// absVal is the abstract value of a place: its label, where it acquired
// it, per-field abstract values for structs, and — when statically
// determined — the concrete constant it holds. Constant tracking gives
// the analysis the value precision of the paper's model-checking-based
// verifier (SMACK): branching on a known boolean explores only the taken
// branch, so an access check like `if privileged { secret_partition }`
// is judged per concrete call, not smeared across both partitions.
type absVal struct {
	label   string
	taintAt minirust.Pos
	fields  map[string]*absVal // structs only
	kb      *bool              // known boolean constant
	ki      *int64             // known integer constant
}

func knownBool(b bool) *bool  { return &b }
func knownInt(i int64) *int64 { return &i }
func (v *absVal) boolKnown() (bool, bool) {
	if v.kb == nil {
		return false, false
	}
	return *v.kb, true
}

func (a *analyzer) bottomVal(pos minirust.Pos) *absVal {
	return &absVal{label: a.lat.Bottom(), taintAt: pos}
}

func (v *absVal) clone() *absVal {
	out := &absVal{label: v.label, taintAt: v.taintAt, kb: v.kb, ki: v.ki}
	if v.fields != nil {
		out.fields = make(map[string]*absVal, len(v.fields))
		for k, f := range v.fields {
			out.fields[k] = f.clone()
		}
	}
	return out
}

// forgetConsts drops constant knowledge recursively (loop widening).
func (v *absVal) forgetConsts() {
	v.kb, v.ki = nil, nil
	for _, f := range v.fields {
		f.forgetConsts()
	}
}

// raise joins lbl into the value's label, recording the taint site when
// the label strictly increases.
func (v *absVal) raise(lat *Lattice, lbl string, at minirust.Pos) {
	joined := lat.Join(v.label, lbl)
	if joined != v.label {
		v.label = joined
		v.taintAt = at
	}
}

// joinWith merges another abstract value in place. Constants survive the
// join only when both sides agree.
func (v *absVal) joinWith(lat *Lattice, o *absVal) {
	if v.kb == nil || o.kb == nil || *v.kb != *o.kb {
		v.kb = nil
	}
	if v.ki == nil || o.ki == nil || *v.ki != *o.ki {
		v.ki = nil
	}
	v.raise(lat, o.label, o.taintAt)
	if o.fields != nil {
		if v.fields == nil {
			v.fields = make(map[string]*absVal, len(o.fields))
		}
		for k, of := range o.fields {
			if vf, ok := v.fields[k]; ok {
				vf.joinWith(lat, of)
			} else {
				v.fields[k] = of.clone()
			}
		}
	}
}

// flatten returns the join of the value's label and all field labels —
// the label of "the whole value" as observed by a sink.
func (v *absVal) flatten(lat *Lattice) (string, minirust.Pos) {
	lbl, at := v.label, v.taintAt
	for _, f := range v.fields {
		fl, fa := f.flatten(lat)
		j := lat.Join(lbl, fl)
		if j != lbl {
			lbl, at = j, fa
		}
	}
	return lbl, at
}

// equalVal compares abstract values structurally (for fixpoints).
func equalVal(a, b *absVal) bool {
	if a.label != b.label || len(a.fields) != len(b.fields) {
		return false
	}
	if (a.kb == nil) != (b.kb == nil) || (a.kb != nil && *a.kb != *b.kb) {
		return false
	}
	if (a.ki == nil) != (b.ki == nil) || (a.ki != nil && *a.ki != *b.ki) {
		return false
	}
	for k, af := range a.fields {
		bf, ok := b.fields[k]
		if !ok || !equalVal(af, bf) {
			return false
		}
	}
	return true
}

// absState maps variables to abstract values.
type absState map[string]*absVal

func (s absState) clone() absState {
	out := make(absState, len(s))
	for k, v := range s {
		out[k] = v.clone()
	}
	return out
}

// joinStates merges b into a pointwise (variables present in both).
func (a *analyzer) joinStates(x, y absState) absState {
	out := make(absState, len(x))
	for k, xv := range x {
		if yv, ok := y[k]; ok {
			m := xv.clone()
			m.joinWith(a.lat, yv)
			out[k] = m
		}
	}
	return out
}

func equalStates(x, y absState) bool {
	if len(x) != len(y) {
		return false
	}
	for k, xv := range x {
		yv, ok := y[k]
		if !ok || !equalVal(xv, yv) {
			return false
		}
	}
	return true
}

// summary memoizes a function's abstract effect for one tuple of argument
// labels: the result value and the final values of by-reference params.
type summary struct {
	result    *absVal
	outParams map[int]*absVal
}

type analyzer struct {
	checked    *minirust.Checked
	lat        *Lattice
	violations []Violation
	summaries  map[string]*summary
	hits       int
	misses     int
	// seen tracks (function, argument-label) frames on the current call
	// stack for recursion detection.
	seen map[string]bool
	// noSummaries disables memoization (see Options.DisableSummaries).
	noSummaries bool
}

func (a *analyzer) errf(pos minirust.Pos, format string, args ...any) error {
	return &AnalysisError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// validateLabels checks every #[label(...)] names a lattice level.
func (a *analyzer) validateLabels(stmts []minirust.Stmt) error {
	for _, s := range stmts {
		switch v := s.(type) {
		case *minirust.LetStmt:
			if v.Label != "" && !a.lat.Has(v.Label) {
				return a.errf(v.Pos, "unknown label %q (lattice: %s)", v.Label, a.lat)
			}
		case *minirust.IfStmt:
			if err := a.validateLabels(v.Then); err != nil {
				return err
			}
			if err := a.validateLabels(v.Else); err != nil {
				return err
			}
		case *minirust.WhileStmt:
			if err := a.validateLabels(v.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// summaryKey identifies a (function, argument-labels) analysis instance.
func summaryKey(f *minirust.FuncDef, args []*absVal, pc string) string {
	var sb strings.Builder
	sb.WriteString(f.Name)
	sb.WriteByte('@')
	sb.WriteString(pc)
	for _, av := range args {
		sb.WriteByte('|')
		writeValKey(&sb, av)
	}
	return sb.String()
}

func writeValKey(sb *strings.Builder, v *absVal) {
	sb.WriteString(v.label)
	if v.kb != nil {
		fmt.Fprintf(sb, "#%t", *v.kb)
	}
	if v.ki != nil {
		fmt.Fprintf(sb, "#%d", *v.ki)
	}
	if len(v.fields) > 0 {
		keys := make([]string, 0, len(v.fields))
		for k := range v.fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteByte('{')
		for _, k := range keys {
			sb.WriteString(k)
			sb.WriteByte(':')
			writeValKey(sb, v.fields[k])
			sb.WriteByte(',')
		}
		sb.WriteByte('}')
	}
}

// analyzeCall analyzes f with the given abstract arguments under pc,
// using the summary cache. Returns (result, outParams-by-index).
func (a *analyzer) analyzeCall(f *minirust.FuncDef, args []*absVal, pc string) (*summary, error) {
	key := summaryKey(f, args, pc)
	if !a.noSummaries {
		if s, ok := a.summaries[key]; ok {
			a.hits++
			return s, nil
		}
	}
	if a.seen[key] {
		// Recursive cycle at the same abstract input: fall back to the
		// sound worst case — everything the function touches goes to Top.
		top := &absVal{label: a.lat.Top(), taintAt: f.Pos}
		s := &summary{result: top, outParams: map[int]*absVal{}}
		for i, p := range f.Params {
			if p.Type.IsRef() && p.Type.Mut {
				s.outParams[i] = top.clone()
			}
		}
		return s, nil
	}
	a.seen[key] = true
	defer delete(a.seen, key)
	a.misses++

	fr := &frame{
		state:  make(absState, len(f.Params)),
		pc:     []string{pc},
		result: a.bottomVal(f.Pos),
	}
	for i, p := range f.Params {
		var av *absVal
		if args != nil && i < len(args) && args[i] != nil {
			av = args[i].clone()
		} else {
			av = a.bottomVal(f.Pos)
		}
		fr.state[p.Name] = av
	}
	if _, err := a.analyzeBlock(f.Body, fr); err != nil {
		return nil, err
	}
	// Unit functions "return" bottom; value functions joined at returns.
	s := &summary{result: fr.result, outParams: make(map[int]*absVal)}
	for i, p := range f.Params {
		if p.Type.IsRef() && p.Type.Mut {
			s.outParams[i] = fr.state[p.Name].clone()
		}
	}
	if !a.noSummaries {
		a.summaries[key] = s
	}
	return s, nil
}

// frame is the per-function analysis state.
type frame struct {
	state  absState
	pc     []string
	result *absVal
}

func (a *analyzer) pcLabel(fr *frame) string {
	l := a.lat.Bottom()
	for _, p := range fr.pc {
		l = a.lat.Join(l, p)
	}
	return l
}

// analyzeBlock analyzes statements in order, stopping at a statement
// that definitely terminates the block (a return on every path). The
// returned flag reports that definite termination, which both keeps the
// analysis precise and — crucially — bounds the constant-folded analysis
// of recursive functions: without it, statements after `return` would be
// analyzed with impossible values (e.g. rec(n-1) below the base case),
// descending forever.
func (a *analyzer) analyzeBlock(stmts []minirust.Stmt, fr *frame) (bool, error) {
	for _, s := range stmts {
		term, err := a.analyzeStmt(s, fr)
		if err != nil {
			return false, err
		}
		if term {
			return true, nil
		}
	}
	return false, nil
}

func (a *analyzer) analyzeStmt(s minirust.Stmt, fr *frame) (bool, error) {
	switch v := s.(type) {
	case *minirust.LetStmt:
		av, err := a.evalExpr(v.Init, fr)
		if err != nil {
			return false, err
		}
		av = av.clone()
		if v.Label != "" {
			// User-provided source label: the variable *is* this level,
			// and it models an external input — its concrete value is
			// not assumed known.
			av.label = v.Label
			av.taintAt = v.Pos
			av.forgetConsts()
		}
		av.raise(a.lat, a.pcLabel(fr), v.Pos)
		fr.state[v.Name] = av
		return false, nil

	case *minirust.AssignStmt:
		av, err := a.evalExpr(v.Value, fr)
		if err != nil {
			return false, err
		}
		av = av.clone()
		av.raise(a.lat, a.pcLabel(fr), v.Pos)
		return false, a.writeLValue(v.Target, av, fr)

	case *minirust.ExprStmt:
		_, err := a.evalExpr(v.X, fr)
		return false, err

	case *minirust.IfStmt:
		cond, err := a.evalExpr(v.Cond, fr)
		if err != nil {
			return false, err
		}
		condLbl, _ := cond.flatten(a.lat)
		fr.pc = append(fr.pc, condLbl)
		defer func() { fr.pc = fr.pc[:len(fr.pc)-1] }()
		// Value precision: a statically known condition takes only its
		// branch (the model-checking precision of the paper's verifier).
		if taken, known := cond.boolKnown(); known {
			if taken {
				return a.analyzeBlock(v.Then, fr)
			}
			if v.Else != nil {
				return a.analyzeBlock(v.Else, fr)
			}
			return false, nil
		}
		pre := fr.state.clone()
		thenTerm, err := a.analyzeBlock(v.Then, fr)
		if err != nil {
			return false, err
		}
		thenState := fr.state
		fr.state = pre
		elseTerm := false
		if v.Else != nil {
			elseTerm, err = a.analyzeBlock(v.Else, fr)
			if err != nil {
				return false, err
			}
		}
		switch {
		case thenTerm && elseTerm:
			return true, nil
		case thenTerm:
			// Only the else state flows on.
			return false, nil
		case elseTerm:
			fr.state = thenState
			return false, nil
		default:
			fr.state = a.joinStates(thenState, fr.state)
			return false, nil
		}

	case *minirust.WhileStmt:
		// Widen: drop constant knowledge before iterating, otherwise a
		// counting loop's state never stabilizes. Labels then ascend to a
		// fixpoint in the finite lattice.
		for _, av := range fr.state {
			av.forgetConsts()
		}
		// Ascend to a fixpoint: labels only rise in a finite lattice.
		for iter := 0; ; iter++ {
			if iter > 4*len(a.lat.levels)+8 {
				return false, a.errf(v.Pos, "loop fixpoint did not converge (internal error)")
			}
			pre := fr.state.clone()
			cond, err := a.evalExpr(v.Cond, fr)
			if err != nil {
				return false, err
			}
			condLbl, _ := cond.flatten(a.lat)
			fr.pc = append(fr.pc, condLbl)
			if _, err := a.analyzeBlock(v.Body, fr); err != nil {
				return false, err
			}
			fr.pc = fr.pc[:len(fr.pc)-1]
			fr.state = a.joinStates(pre, fr.state)
			if equalStates(pre, fr.state) {
				return false, nil
			}
		}

	case *minirust.ReturnStmt:
		if v.Value != nil {
			av, err := a.evalExpr(v.Value, fr)
			if err != nil {
				return false, err
			}
			merged := av.clone()
			merged.raise(a.lat, a.pcLabel(fr), v.Pos)
			fr.result.joinWith(a.lat, merged)
		} else {
			fr.result.raise(a.lat, a.pcLabel(fr), v.Pos)
		}
		return true, nil
	}
	return false, a.errf(s.Position(), "unhandled statement")
}

// writeLValue stores an abstract value into a variable or field path.
// Thanks to single ownership there is exactly one abstract cell to
// update — no alias set.
func (a *analyzer) writeLValue(lv minirust.LValue, av *absVal, fr *frame) error {
	root, ok := fr.state[lv.Root]
	if !ok {
		return a.errf(lv.Pos, "unknown variable %s", lv.Root)
	}
	if len(lv.Path) == 0 {
		fr.state[lv.Root] = av
		return nil
	}
	cur := root
	for i, field := range lv.Path {
		if cur.fields == nil {
			cur.fields = make(map[string]*absVal)
		}
		if i == len(lv.Path)-1 {
			cur.fields[field] = av
			return nil
		}
		next, ok := cur.fields[field]
		if !ok {
			next = a.bottomVal(lv.Pos)
			cur.fields[field] = next
		}
		cur = next
	}
	return nil
}

// placeVal resolves the abstract value of a place expression for
// write-back through &mut borrows; returns nil when the expression is not
// a place.
func (a *analyzer) placeVal(e minirust.Expr, fr *frame, create bool) *absVal {
	switch v := e.(type) {
	case *minirust.VarRef:
		return fr.state[v.Name]
	case *minirust.FieldAccess:
		base := a.placeVal(v.X, fr, create)
		if base == nil {
			return nil
		}
		if base.fields == nil {
			if !create {
				return nil
			}
			base.fields = make(map[string]*absVal)
		}
		f, ok := base.fields[v.Field]
		if !ok {
			if !create {
				return nil
			}
			f = a.bottomVal(v.Pos)
			f.raise(a.lat, base.label, base.taintAt)
			base.fields[v.Field] = f
		}
		return f
	case *minirust.BorrowExpr:
		return a.placeVal(v.X, fr, create)
	default:
		return nil
	}
}

func (a *analyzer) evalExpr(e minirust.Expr, fr *frame) (*absVal, error) {
	switch v := e.(type) {
	case *minirust.IntLit:
		out := a.bottomVal(v.Pos)
		out.ki = knownInt(v.Value)
		return out, nil
	case *minirust.BoolLit:
		out := a.bottomVal(v.Pos)
		out.kb = knownBool(v.Value)
		return out, nil
	case *minirust.StrLit:
		return a.bottomVal(e.Position()), nil

	case *minirust.VecLit:
		out := a.bottomVal(v.Pos)
		for _, el := range v.Elems {
			ev, err := a.evalExpr(el, fr)
			if err != nil {
				return nil, err
			}
			lbl, at := ev.flatten(a.lat)
			out.raise(a.lat, lbl, at)
		}
		return out, nil

	case *minirust.VarRef:
		if av, ok := fr.state[v.Name]; ok {
			return av, nil
		}
		return nil, a.errf(v.Pos, "unknown variable %s", v.Name)

	case *minirust.FieldAccess:
		if pv := a.placeVal(v, fr, true); pv != nil {
			return pv, nil
		}
		// Field of a non-place (call result): evaluate and flatten.
		base, err := a.evalExpr(v.X, fr)
		if err != nil {
			return nil, err
		}
		if f, ok := base.fields[v.Field]; ok {
			return f, nil
		}
		out := a.bottomVal(v.Pos)
		lbl, at := base.flatten(a.lat)
		out.raise(a.lat, lbl, at)
		return out, nil

	case *minirust.BorrowExpr:
		return a.evalExpr(v.X, fr)

	case *minirust.UnaryExpr:
		x, err := a.evalExpr(v.X, fr)
		if err != nil {
			return nil, err
		}
		out := a.bottomVal(v.Pos)
		lbl, at := x.flatten(a.lat)
		out.raise(a.lat, lbl, at)
		switch v.Op {
		case minirust.Bang:
			if x.kb != nil {
				out.kb = knownBool(!*x.kb)
			}
		case minirust.Minus:
			if x.ki != nil {
				out.ki = knownInt(-*x.ki)
			}
		}
		return out, nil

	case *minirust.BinaryExpr:
		l, err := a.evalExpr(v.L, fr)
		if err != nil {
			return nil, err
		}
		r, err := a.evalExpr(v.R, fr)
		if err != nil {
			return nil, err
		}
		out := a.bottomVal(v.Pos)
		ll, la := l.flatten(a.lat)
		rl, ra := r.flatten(a.lat)
		out.raise(a.lat, ll, la)
		out.raise(a.lat, rl, ra)
		foldBinary(v.Op, l, r, out)
		return out, nil

	case *minirust.StructLit:
		out := a.bottomVal(v.Pos)
		out.fields = make(map[string]*absVal, len(v.Fields))
		for name, fe := range v.Fields {
			fv, err := a.evalExpr(fe, fr)
			if err != nil {
				return nil, err
			}
			out.fields[name] = fv.clone()
		}
		return out, nil

	case *minirust.CallExpr:
		return a.evalCall(v, fr)

	case *minirust.MethodCall:
		return a.evalMethodCall(v, fr)
	}
	return nil, a.errf(e.Position(), "unhandled expression")
}

// foldBinary computes the constant result of a binary operation when both
// operands are statically known, storing it in out.
func foldBinary(op minirust.Kind, l, r, out *absVal) {
	switch op {
	case minirust.AmpAmp:
		if l.kb != nil && r.kb != nil {
			out.kb = knownBool(*l.kb && *r.kb)
		} else if l.kb != nil && !*l.kb {
			out.kb = knownBool(false) // short-circuit
		}
	case minirust.Pipe2:
		if l.kb != nil && r.kb != nil {
			out.kb = knownBool(*l.kb || *r.kb)
		} else if l.kb != nil && *l.kb {
			out.kb = knownBool(true)
		}
	case minirust.Eq:
		if l.ki != nil && r.ki != nil {
			out.kb = knownBool(*l.ki == *r.ki)
		} else if l.kb != nil && r.kb != nil {
			out.kb = knownBool(*l.kb == *r.kb)
		}
	case minirust.Ne:
		if l.ki != nil && r.ki != nil {
			out.kb = knownBool(*l.ki != *r.ki)
		} else if l.kb != nil && r.kb != nil {
			out.kb = knownBool(*l.kb != *r.kb)
		}
	}
	if l.ki == nil || r.ki == nil {
		return
	}
	x, y := *l.ki, *r.ki
	switch op {
	case minirust.Plus:
		out.ki = knownInt(x + y)
	case minirust.Minus:
		out.ki = knownInt(x - y)
	case minirust.Star:
		out.ki = knownInt(x * y)
	case minirust.Slash:
		if y != 0 {
			out.ki = knownInt(x / y)
		}
	case minirust.Percent:
		if y != 0 {
			out.ki = knownInt(x % y)
		}
	case minirust.Lt:
		out.kb = knownBool(x < y)
	case minirust.Gt:
		out.kb = knownBool(x > y)
	case minirust.Le:
		out.kb = knownBool(x <= y)
	case minirust.Ge:
		out.kb = knownBool(x >= y)
	}
}

func (a *analyzer) evalCall(v *minirust.CallExpr, fr *frame) (*absVal, error) {
	if minirust.Builtins[v.Name] {
		return a.evalBuiltin(v, fr)
	}
	f, ok := a.checked.Prog.Funcs[v.Name]
	if !ok {
		return nil, a.errf(v.Pos, "unknown function %s", v.Name)
	}
	return a.applyFunc(f, v.Args, nil, v.Pos, fr)
}

func (a *analyzer) evalMethodCall(v *minirust.MethodCall, fr *frame) (*absVal, error) {
	base := a.checked.TypeOf(v.Recv)
	for base.IsRef() {
		base = *base.Ref
	}
	f, ok := a.checked.Prog.Funcs[minirust.QualifiedName(base.Name, v.Method)]
	if !ok {
		return nil, a.errf(v.Pos, "unknown method %s", v.Method)
	}
	return a.applyFunc(f, v.Args, v.Recv, v.Pos, fr)
}

// applyFunc analyzes a call. recv, when non-nil, is prepended as the self
// argument.
func (a *analyzer) applyFunc(f *minirust.FuncDef, argExprs []minirust.Expr, recv minirust.Expr, pos minirust.Pos, fr *frame) (*absVal, error) {
	all := argExprs
	if recv != nil {
		all = append([]minirust.Expr{recv}, argExprs...)
	}
	args := make([]*absVal, len(all))
	for i, ae := range all {
		av, err := a.evalExpr(ae, fr)
		if err != nil {
			return nil, err
		}
		args[i] = av
	}
	s, err := a.analyzeCall(f, args, a.pcLabel(fr))
	if err != nil {
		return nil, err
	}
	// Write back &mut params to their source places.
	for i, out := range s.outParams {
		if i >= len(all) {
			continue
		}
		if pv := a.placeVal(all[i], fr, true); pv != nil {
			pv.joinWith(a.lat, out)
		}
	}
	res := s.result.clone()
	res.raise(a.lat, a.pcLabel(fr), pos)
	return res, nil
}

func (a *analyzer) evalBuiltin(v *minirust.CallExpr, fr *frame) (*absVal, error) {
	argVals := make([]*absVal, len(v.Args))
	for i, ae := range v.Args {
		av, err := a.evalExpr(ae, fr)
		if err != nil {
			return nil, err
		}
		argVals[i] = av
	}
	pc := a.pcLabel(fr)
	switch v.Name {
	case "println":
		// The untrusted terminal: bound is lattice bottom.
		bound := a.lat.Bottom()
		eff, at := a.lat.Bottom(), v.Pos
		for _, av := range argVals {
			l, la := av.flatten(a.lat)
			j := a.lat.Join(eff, l)
			if j != eff {
				eff, at = j, la
			}
		}
		if j := a.lat.Join(eff, pc); j != eff {
			eff, at = j, v.Pos
		}
		if !a.lat.Le(eff, bound) {
			a.violations = append(a.violations, Violation{
				Pos: v.Pos, Sink: "println", Label: eff, Bound: bound, TaintAt: at,
			})
		}
		return a.bottomVal(v.Pos), nil

	case "assert":
		return a.bottomVal(v.Pos), nil

	case "vec_len":
		out := a.bottomVal(v.Pos)
		lbl, at := argVals[0].flatten(a.lat)
		out.raise(a.lat, lbl, at)
		return out, nil

	case "vec_get":
		out := a.bottomVal(v.Pos)
		for _, av := range argVals {
			lbl, at := av.flatten(a.lat)
			out.raise(a.lat, lbl, at)
		}
		return out, nil

	case "vec_push":
		// vec_push(&mut v, x): the vector absorbs x's label and the pc.
		if pv := a.placeVal(v.Args[0], fr, true); pv != nil {
			lbl, at := argVals[1].flatten(a.lat)
			pv.raise(a.lat, lbl, at)
			pv.raise(a.lat, pc, v.Pos)
		}
		return a.bottomVal(v.Pos), nil

	case "declassify":
		target := v.Args[1].(*minirust.StrLit).Value
		if !a.lat.Has(target) {
			return nil, a.errf(v.Pos, "unknown label %q in declassify", target)
		}
		out := a.bottomVal(v.Pos)
		out.label = target
		out.taintAt = v.Pos
		return out, nil

	case "assert_label_max":
		bound := v.Args[1].(*minirust.StrLit).Value
		if !a.lat.Has(bound) {
			return nil, a.errf(v.Pos, "unknown label %q in assert_label_max", bound)
		}
		eff, at := argVals[0].flatten(a.lat)
		eff2 := a.lat.Join(eff, pc)
		if eff2 != eff {
			at = v.Pos
		}
		if !a.lat.Le(eff2, bound) {
			a.violations = append(a.violations, Violation{
				Pos: v.Pos, Sink: "assert_label_max", Label: eff2, Bound: bound, TaintAt: at,
			})
		}
		return a.bottomVal(v.Pos), nil
	}
	return nil, a.errf(v.Pos, "unknown builtin %s", v.Name)
}
