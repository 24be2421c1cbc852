package minirust

import (
	"fmt"
	"io"
	"strings"
)

// RuntimeError is an execution failure (assertion violation, arithmetic
// fault, step-budget exhaustion). In the SFI experiments such failures are
// the panics that fault a protection domain.
type RuntimeError struct {
	Pos Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg) }

// LeakError is raised by the dynamic IFC monitor when data flows to a
// channel above its bound. The static analysis in internal/ifc exists to
// prove this can never fire; tests use the monitor as the ground-truth
// oracle for that claim.
type LeakError struct {
	Pos   Pos
	Label string // label of the data (joined with the pc)
	Bound string // channel bound that was exceeded
}

func (e *LeakError) Error() string {
	return fmt.Sprintf("%s: information leak: %s data sent to %s-bounded channel", e.Pos, e.Label, e.Bound)
}

// Monitor supplies lattice operations for dynamic label tracking. Both
// funcs must be set. Bottom is also the bound of the println sink: an
// untrusted public terminal, as in the paper. A nil *Monitor disables
// label tracking.
type Monitor struct {
	Bottom string
	Join   func(a, b string) string
	Le     func(a, b string) bool
}

// Value is a runtime value. Label carries the dynamic security label when
// a Monitor is installed.
type Value struct {
	Kind  ValueKind
	I     int64
	B     bool
	S     string
	Vec   *VecVal
	St    *StructVal
	Ref   *Value // borrow: pointer to the borrowed cell
	Label string
}

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	VUnit ValueKind = iota
	VInt
	VBool
	VStr
	VVec
	VStruct
	VRef
	VMoved // poisoned cell: the value was moved away (defense in depth)
)

// VecVal is a mutable vector; aliasing through borrows shares it.
type VecVal struct {
	Elems []Value
}

// StructVal is a mutable struct instance; field cells are addressable so
// borrows of fields alias storage.
type StructVal struct {
	Name   string
	Fields map[string]*Value
}

// Format renders a value like Rust's {:?}.
func (v Value) Format() string {
	switch v.Kind {
	case VUnit:
		return "()"
	case VInt:
		return fmt.Sprintf("%d", v.I)
	case VBool:
		return fmt.Sprintf("%t", v.B)
	case VStr:
		return fmt.Sprintf("%q", v.S)
	case VVec:
		parts := make([]string, len(v.Vec.Elems))
		for i, e := range v.Vec.Elems {
			parts[i] = e.Format()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case VStruct:
		parts := make([]string, 0, len(v.St.Fields))
		for name, f := range v.St.Fields {
			parts = append(parts, fmt.Sprintf("%s: %s", name, f.Format()))
		}
		return v.St.Name + " { " + strings.Join(parts, ", ") + " }"
	case VRef:
		return "&" + v.Ref.Format()
	case VMoved:
		return "<moved>"
	}
	return "<?>"
}

// Interp executes a checked program.
type Interp struct {
	checked  *Checked
	out      io.Writer
	monitor  *Monitor
	maxSteps int
	steps    int
	pc       []string // dynamic pc-label stack (monitor mode)
}

// InterpOption configures an interpreter.
type InterpOption func(*Interp)

// WithOutput directs println output.
func WithOutput(w io.Writer) InterpOption { return func(i *Interp) { i.out = w } }

// WithMonitor installs the dynamic IFC monitor.
func WithMonitor(m *Monitor) InterpOption { return func(i *Interp) { i.monitor = m } }

// WithMaxSteps bounds execution (default 1e6 statements/expressions).
func WithMaxSteps(n int) InterpOption { return func(i *Interp) { i.maxSteps = n } }

// NewInterp creates an interpreter for a checked program.
func NewInterp(c *Checked, opts ...InterpOption) *Interp {
	in := &Interp{checked: c, out: io.Discard, maxSteps: 1_000_000}
	for _, o := range opts {
		o(in)
	}
	return in
}

// Run executes main.
func (in *Interp) Run() error {
	main := in.checked.Prog.Funcs["main"]
	_, err := in.callFunc(main, nil, main.Pos)
	return err
}

// NewInt builds an i64 runtime value with the given label ("" = untracked).
func NewInt(v int64, label string) Value { return Value{Kind: VInt, I: v, Label: label} }

// CallFunction invokes a named function with the given argument values —
// the embedding hook for hosts (e.g. verified kernel extensions) that
// drive entry points other than main. The step budget is shared across
// calls; Reset it with ResetSteps for long-lived hosts.
func (in *Interp) CallFunction(name string, args []Value) (Value, error) {
	f, ok := in.checked.Prog.Funcs[name]
	if !ok {
		return Value{}, &RuntimeError{Msg: fmt.Sprintf("unknown function %s", name)}
	}
	return in.callFunc(f, args, f.Pos)
}

// ResetSteps resets the interpreter's step budget, for hosts making many
// independent CallFunction invocations.
func (in *Interp) ResetSteps() { in.steps = 0 }

// returnSignal unwinds to the function call boundary.
type returnSignal struct {
	val Value
}

func (returnSignal) Error() string { return "return" }

func (in *Interp) step(pos Pos) error {
	in.steps++
	if in.steps > in.maxSteps {
		return &RuntimeError{Pos: pos, Msg: "step budget exhausted (infinite loop?)"}
	}
	return nil
}

func (in *Interp) bottom() string {
	if in.monitor != nil {
		return in.monitor.Bottom
	}
	return ""
}

func (in *Interp) join(a, b string) string {
	if in.monitor == nil {
		return ""
	}
	if a == "" {
		a = in.monitor.Bottom
	}
	if b == "" {
		b = in.monitor.Bottom
	}
	return in.monitor.Join(a, b)
}

func (in *Interp) pcLabel() string {
	if in.monitor == nil {
		return ""
	}
	l := in.monitor.Bottom
	for _, p := range in.pc {
		l = in.monitor.Join(l, p)
	}
	return l
}

// env is the runtime scope chain.
type rtEnv struct {
	vars   map[string]*Value
	parent *rtEnv
}

func newRtEnv(parent *rtEnv) *rtEnv {
	return &rtEnv{vars: make(map[string]*Value), parent: parent}
}

func (e *rtEnv) lookup(name string) (*Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (in *Interp) callFunc(f *FuncDef, args []Value, pos Pos) (Value, error) {
	if len(args) != len(f.Params) {
		return Value{}, &RuntimeError{Pos: pos, Msg: fmt.Sprintf("%s: arity mismatch", f.Name)}
	}
	env := newRtEnv(nil)
	for i, p := range f.Params {
		v := args[i]
		env.vars[p.Name] = &v
	}
	err := in.execBlock(f.Body, env)
	if err != nil {
		if rs, ok := err.(returnSignal); ok {
			return rs.val, nil
		}
		return Value{}, err
	}
	return Value{Kind: VUnit, Label: in.bottom()}, nil
}

func (in *Interp) execBlock(stmts []Stmt, env *rtEnv) error {
	for _, s := range stmts {
		if err := in.execStmt(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execStmt(s Stmt, env *rtEnv) error {
	if err := in.step(s.Position()); err != nil {
		return err
	}
	switch v := s.(type) {
	case *LetStmt:
		val, err := in.evalMove(v.Init, env)
		if err != nil {
			return err
		}
		if in.monitor != nil {
			if v.Label != "" {
				val.Label = v.Label // user-provided source label
			}
			val.Label = in.join(val.Label, in.pcLabel())
		}
		cell := val
		env.vars[v.Name] = &cell
		return nil

	case *AssignStmt:
		val, err := in.evalMove(v.Value, env)
		if err != nil {
			return err
		}
		if in.monitor != nil {
			val.Label = in.join(val.Label, in.pcLabel())
		}
		cell, err := in.resolveLValue(v.Target, env)
		if err != nil {
			return err
		}
		*cell = val
		return nil

	case *ExprStmt:
		_, err := in.eval(v.X, env)
		return err

	case *IfStmt:
		cond, err := in.eval(v.Cond, env)
		if err != nil {
			return err
		}
		if cond.Kind != VBool {
			return &RuntimeError{Pos: v.Pos, Msg: "condition is not bool"}
		}
		if in.monitor != nil {
			in.pc = append(in.pc, cond.Label)
			defer func() { in.pc = in.pc[:len(in.pc)-1] }()
		}
		if cond.B {
			return in.execBlock(v.Then, newRtEnv(env))
		}
		if v.Else != nil {
			return in.execBlock(v.Else, newRtEnv(env))
		}
		return nil

	case *WhileStmt:
		for {
			if err := in.step(v.Pos); err != nil {
				return err
			}
			cond, err := in.eval(v.Cond, env)
			if err != nil {
				return err
			}
			if cond.Kind != VBool {
				return &RuntimeError{Pos: v.Pos, Msg: "condition is not bool"}
			}
			if !cond.B {
				return nil
			}
			err = func() error {
				if in.monitor != nil {
					in.pc = append(in.pc, cond.Label)
					defer func() { in.pc = in.pc[:len(in.pc)-1] }()
				}
				return in.execBlock(v.Body, newRtEnv(env))
			}()
			if err != nil {
				return err
			}
		}

	case *ReturnStmt:
		if v.Value == nil {
			return returnSignal{val: Value{Kind: VUnit, Label: in.bottom()}}
		}
		val, err := in.evalMove(v.Value, env)
		if err != nil {
			return err
		}
		return returnSignal{val: val}
	}
	return &RuntimeError{Pos: s.Position(), Msg: "unhandled statement"}
}

// resolveLValue returns the storage cell for an assignment target.
func (in *Interp) resolveLValue(lv LValue, env *rtEnv) (*Value, error) {
	cell, ok := env.lookup(lv.Root)
	if !ok {
		return nil, &RuntimeError{Pos: lv.Pos, Msg: fmt.Sprintf("unknown variable %s", lv.Root)}
	}
	for _, field := range lv.Path {
		for cell.Kind == VRef {
			cell = cell.Ref
		}
		if cell.Kind != VStruct {
			return nil, &RuntimeError{Pos: lv.Pos, Msg: fmt.Sprintf("%s is not a struct", lv.Root)}
		}
		f, ok := cell.St.Fields[field]
		if !ok {
			return nil, &RuntimeError{Pos: lv.Pos, Msg: fmt.Sprintf("no field %s", field)}
		}
		cell = f
	}
	return cell, nil
}

// evalMove evaluates an expression whose result is consumed by value; if
// the source is a place holding a move-type value, the place is poisoned
// (runtime defense in depth behind the static borrow checker).
func (in *Interp) evalMove(e Expr, env *rtEnv) (Value, error) {
	v, err := in.eval(e, env)
	if err != nil {
		return Value{}, err
	}
	if !in.checked.TypeOf(e).IsCopy() {
		if cell := in.placeCell(e, env); cell != nil {
			*cell = Value{Kind: VMoved}
		}
	}
	return v, nil
}

// placeCell returns the storage cell of a place expression, or nil.
func (in *Interp) placeCell(e Expr, env *rtEnv) *Value {
	switch v := e.(type) {
	case *VarRef:
		if cell, ok := env.lookup(v.Name); ok {
			return cell
		}
	case *FieldAccess:
		base := in.placeCell(v.X, env)
		if base == nil {
			return nil
		}
		for base.Kind == VRef {
			base = base.Ref
		}
		if base.Kind != VStruct {
			return nil
		}
		return base.St.Fields[v.Field]
	}
	return nil
}

func (in *Interp) eval(e Expr, env *rtEnv) (Value, error) {
	if err := in.step(e.Position()); err != nil {
		return Value{}, err
	}
	switch v := e.(type) {
	case *IntLit:
		return Value{Kind: VInt, I: v.Value, Label: in.bottom()}, nil
	case *BoolLit:
		return Value{Kind: VBool, B: v.Value, Label: in.bottom()}, nil
	case *StrLit:
		return Value{Kind: VStr, S: v.Value, Label: in.bottom()}, nil

	case *VecLit:
		vec := &VecVal{}
		label := in.bottom()
		for _, el := range v.Elems {
			ev, err := in.evalMove(el, env)
			if err != nil {
				return Value{}, err
			}
			label = in.join(label, ev.Label)
			vec.Elems = append(vec.Elems, ev)
		}
		return Value{Kind: VVec, Vec: vec, Label: label}, nil

	case *VarRef:
		cell, ok := env.lookup(v.Name)
		if !ok {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: fmt.Sprintf("unknown variable %s", v.Name)}
		}
		if cell.Kind == VMoved {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: fmt.Sprintf("use of moved value %s", v.Name)}
		}
		return *cell, nil

	case *FieldAccess:
		base, err := in.eval(v.X, env)
		if err != nil {
			return Value{}, err
		}
		for base.Kind == VRef {
			base = *base.Ref
		}
		if base.Kind != VStruct {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: "field access on non-struct"}
		}
		f, ok := base.St.Fields[v.Field]
		if !ok {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: fmt.Sprintf("no field %s", v.Field)}
		}
		if f.Kind == VMoved {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: fmt.Sprintf("use of moved field %s", v.Field)}
		}
		out := *f
		out.Label = in.join(out.Label, base.Label)
		return out, nil

	case *BorrowExpr:
		cell := in.placeCell(v.X, env)
		if cell == nil {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: "cannot borrow this expression"}
		}
		for cell.Kind == VRef {
			cell = cell.Ref
		}
		if cell.Kind == VMoved {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: "borrow of moved value"}
		}
		return Value{Kind: VRef, Ref: cell, Label: cell.Label}, nil

	case *UnaryExpr:
		x, err := in.eval(v.X, env)
		if err != nil {
			return Value{}, err
		}
		switch v.Op {
		case Bang:
			return Value{Kind: VBool, B: !x.B, Label: x.Label}, nil
		case Minus:
			return Value{Kind: VInt, I: -x.I, Label: x.Label}, nil
		}
		return Value{}, &RuntimeError{Pos: v.Pos, Msg: "unknown unary op"}

	case *BinaryExpr:
		l, err := in.eval(v.L, env)
		if err != nil {
			return Value{}, err
		}
		// Short-circuit logicals.
		if v.Op == AmpAmp && !l.B {
			return Value{Kind: VBool, B: false, Label: l.Label}, nil
		}
		if v.Op == Pipe2 && l.B {
			return Value{Kind: VBool, B: true, Label: l.Label}, nil
		}
		r, err := in.eval(v.R, env)
		if err != nil {
			return Value{}, err
		}
		label := in.join(l.Label, r.Label)
		switch v.Op {
		case Plus:
			return Value{Kind: VInt, I: l.I + r.I, Label: label}, nil
		case Minus:
			return Value{Kind: VInt, I: l.I - r.I, Label: label}, nil
		case Star:
			return Value{Kind: VInt, I: l.I * r.I, Label: label}, nil
		case Slash:
			if r.I == 0 {
				return Value{}, &RuntimeError{Pos: v.Pos, Msg: "division by zero"}
			}
			return Value{Kind: VInt, I: l.I / r.I, Label: label}, nil
		case Percent:
			if r.I == 0 {
				return Value{}, &RuntimeError{Pos: v.Pos, Msg: "remainder by zero"}
			}
			return Value{Kind: VInt, I: l.I % r.I, Label: label}, nil
		case Lt:
			return Value{Kind: VBool, B: l.I < r.I, Label: label}, nil
		case Gt:
			return Value{Kind: VBool, B: l.I > r.I, Label: label}, nil
		case Le:
			return Value{Kind: VBool, B: l.I <= r.I, Label: label}, nil
		case Ge:
			return Value{Kind: VBool, B: l.I >= r.I, Label: label}, nil
		case Eq, Ne:
			eq, err := valueEq(l, r)
			if err != nil {
				return Value{}, &RuntimeError{Pos: v.Pos, Msg: err.Error()}
			}
			if v.Op == Ne {
				eq = !eq
			}
			return Value{Kind: VBool, B: eq, Label: label}, nil
		case AmpAmp, Pipe2:
			return Value{Kind: VBool, B: r.B, Label: label}, nil
		}
		return Value{}, &RuntimeError{Pos: v.Pos, Msg: "unknown binary op"}

	case *StructLit:
		sv := &StructVal{Name: v.Name, Fields: make(map[string]*Value)}
		for name, fe := range v.Fields {
			fv, err := in.evalMove(fe, env)
			if err != nil {
				return Value{}, err
			}
			cell := fv
			sv.Fields[name] = &cell
		}
		return Value{Kind: VStruct, St: sv, Label: in.bottom()}, nil

	case *CallExpr:
		return in.evalCall(v, env)

	case *MethodCall:
		return in.evalMethodCall(v, env)
	}
	return Value{}, &RuntimeError{Pos: e.Position(), Msg: "unhandled expression"}
}

func valueEq(a, b Value) (bool, error) {
	if a.Kind != b.Kind {
		return false, fmt.Errorf("comparing different kinds")
	}
	switch a.Kind {
	case VInt:
		return a.I == b.I, nil
	case VBool:
		return a.B == b.B, nil
	case VStr:
		return a.S == b.S, nil
	case VUnit:
		return true, nil
	}
	return false, fmt.Errorf("equality unsupported for this kind")
}

func (in *Interp) evalCall(v *CallExpr, env *rtEnv) (Value, error) {
	if Builtins[v.Name] {
		return in.evalBuiltin(v, env)
	}
	f, ok := in.checked.Prog.Funcs[v.Name]
	if !ok {
		return Value{}, &RuntimeError{Pos: v.Pos, Msg: fmt.Sprintf("unknown function %s", v.Name)}
	}
	args := make([]Value, len(v.Args))
	for i, a := range v.Args {
		av, err := in.evalArg(a, f.Params[i].Type, env)
		if err != nil {
			return Value{}, err
		}
		args[i] = av
	}
	return in.callFunc(f, args, v.Pos)
}

// evalArg evaluates a call argument: by-reference params receive the
// borrow value; by-value params consume (move) the argument.
func (in *Interp) evalArg(a Expr, want Type, env *rtEnv) (Value, error) {
	if want.IsRef() {
		return in.eval(a, env)
	}
	return in.evalMove(a, env)
}

func (in *Interp) evalMethodCall(v *MethodCall, env *rtEnv) (Value, error) {
	base := in.checked.TypeOf(v.Recv)
	for base.IsRef() {
		base = *base.Ref
	}
	f, ok := in.checked.Prog.Funcs[QualifiedName(base.Name, v.Method)]
	if !ok {
		return Value{}, &RuntimeError{Pos: v.Pos, Msg: fmt.Sprintf("unknown method %s", v.Method)}
	}
	selfT := f.Params[0].Type
	var recv Value
	var err error
	recvT := in.checked.TypeOf(v.Recv)
	switch {
	case selfT.IsRef() && !recvT.IsRef():
		// Auto-borrow the receiver place.
		cell := in.placeCell(v.Recv, env)
		if cell == nil {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: "cannot borrow receiver"}
		}
		for cell.Kind == VRef {
			cell = cell.Ref
		}
		recv = Value{Kind: VRef, Ref: cell, Label: cell.Label}
	case selfT.IsRef() && recvT.IsRef():
		recv, err = in.eval(v.Recv, env)
	default:
		recv, err = in.evalMove(v.Recv, env)
	}
	if err != nil {
		return Value{}, err
	}
	args := make([]Value, 0, len(v.Args)+1)
	args = append(args, recv)
	for i, a := range v.Args {
		av, err := in.evalArg(a, f.Params[i+1].Type, env)
		if err != nil {
			return Value{}, err
		}
		args = append(args, av)
	}
	return in.callFunc(f, args, v.Pos)
}

func (in *Interp) evalBuiltin(v *CallExpr, env *rtEnv) (Value, error) {
	switch v.Name {
	case "println":
		parts := make([]string, len(v.Args))
		label := in.bottom()
		for i, a := range v.Args {
			av, err := in.eval(a, env)
			if err != nil {
				return Value{}, err
			}
			parts[i] = av.Format()
			label = in.join(label, av.Label)
		}
		if in.monitor != nil {
			eff := in.join(label, in.pcLabel())
			bound := in.monitor.Bottom
			if !in.monitor.Le(eff, bound) {
				return Value{}, &LeakError{Pos: v.Pos, Label: eff, Bound: bound}
			}
		}
		fmt.Fprintln(in.out, strings.Join(parts, " "))
		return Value{Kind: VUnit, Label: in.bottom()}, nil

	case "assert":
		av, err := in.eval(v.Args[0], env)
		if err != nil {
			return Value{}, err
		}
		if !av.B {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: "assertion failed"}
		}
		return Value{Kind: VUnit, Label: in.bottom()}, nil

	case "vec_len":
		av, err := in.eval(v.Args[0], env)
		if err != nil {
			return Value{}, err
		}
		vec := av
		for vec.Kind == VRef {
			vec = *vec.Ref
		}
		return Value{Kind: VInt, I: int64(len(vec.Vec.Elems)), Label: vec.Label}, nil

	case "vec_get":
		av, err := in.eval(v.Args[0], env)
		if err != nil {
			return Value{}, err
		}
		idx, err := in.eval(v.Args[1], env)
		if err != nil {
			return Value{}, err
		}
		vec := av
		for vec.Kind == VRef {
			vec = *vec.Ref
		}
		if idx.I < 0 || idx.I >= int64(len(vec.Vec.Elems)) {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: fmt.Sprintf("index %d out of bounds (len %d)", idx.I, len(vec.Vec.Elems))}
		}
		out := vec.Vec.Elems[idx.I]
		out.Label = in.join(in.join(out.Label, vec.Label), idx.Label)
		return out, nil

	case "vec_push":
		av, err := in.eval(v.Args[0], env)
		if err != nil {
			return Value{}, err
		}
		el, err := in.evalMove(v.Args[1], env)
		if err != nil {
			return Value{}, err
		}
		cell := &av
		for cell.Kind == VRef {
			cell = cell.Ref
		}
		if cell.Kind != VVec {
			return Value{}, &RuntimeError{Pos: v.Pos, Msg: "vec_push target is not a vector"}
		}
		cell.Vec.Elems = append(cell.Vec.Elems, el)
		cell.Label = in.join(in.join(cell.Label, el.Label), in.pcLabel())
		return Value{Kind: VUnit, Label: in.bottom()}, nil

	case "declassify":
		av, err := in.evalMove(v.Args[0], env)
		if err != nil {
			return Value{}, err
		}
		target := v.Args[1].(*StrLit).Value
		av.Label = target
		return av, nil

	case "assert_label_max":
		av, err := in.eval(v.Args[0], env)
		if err != nil {
			return Value{}, err
		}
		bound := v.Args[1].(*StrLit).Value
		if in.monitor != nil {
			eff := in.join(av.Label, in.pcLabel())
			if !in.monitor.Le(eff, bound) {
				return Value{}, &LeakError{Pos: v.Pos, Label: eff, Bound: bound}
			}
		}
		return Value{Kind: VUnit, Label: in.bottom()}, nil
	}
	return Value{}, &RuntimeError{Pos: v.Pos, Msg: fmt.Sprintf("unknown builtin %s", v.Name)}
}
