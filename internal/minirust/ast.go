package minirust

import (
	"fmt"
	"strings"
)

// Type is a minirust type. Exactly one alternative is populated.
type Type struct {
	// Name is "i64", "bool", "str", "unit", or a struct name.
	Name string
	// Vec, when non-nil, makes this Vec<Elem> (Name is empty).
	Vec *Type
	// Ref marks a borrow: &T (Mut=false) or &mut T (Mut=true). Borrow
	// types appear only in parameter positions.
	Ref *Type
	Mut bool
}

// Builtin type constructors.
var (
	TypeI64  = Type{Name: "i64"}
	TypeBool = Type{Name: "bool"}
	TypeStr  = Type{Name: "str"}
	TypeUnit = Type{Name: "unit"}
)

// VecOf builds Vec<elem>.
func VecOf(elem Type) Type { return Type{Vec: &elem} }

// RefTo builds &T or &mut T.
func RefTo(t Type, mut bool) Type { return Type{Ref: &t, Mut: mut} }

// IsRef reports whether the type is a borrow.
func (t Type) IsRef() bool { return t.Ref != nil }

// IsVec reports whether the type is a vector.
func (t Type) IsVec() bool { return t.Vec != nil }

// IsUnit reports whether the type is unit.
func (t Type) IsUnit() bool { return t.Name == "unit" && t.Vec == nil && t.Ref == nil }

// IsCopy reports whether values of the type are copied rather than moved
// (scalars and borrows; everything else is a move type — the property the
// ownership analysis keys on).
func (t Type) IsCopy() bool {
	if t.Ref != nil {
		return true
	}
	if t.Vec != nil {
		return false
	}
	switch t.Name {
	case "i64", "bool", "str", "unit":
		return true
	}
	return false // user structs move
}

// Equal reports structural type equality.
func (t Type) Equal(o Type) bool {
	if (t.Vec == nil) != (o.Vec == nil) || (t.Ref == nil) != (o.Ref == nil) {
		return false
	}
	if t.Vec != nil {
		return t.Vec.Equal(*o.Vec)
	}
	if t.Ref != nil {
		return t.Mut == o.Mut && t.Ref.Equal(*o.Ref)
	}
	return t.Name == o.Name
}

// String renders the type in source syntax.
func (t Type) String() string {
	switch {
	case t.Ref != nil && t.Mut:
		return "&mut " + t.Ref.String()
	case t.Ref != nil:
		return "&" + t.Ref.String()
	case t.Vec != nil:
		return "Vec<" + t.Vec.String() + ">"
	default:
		return t.Name
	}
}

// Program is a parsed compilation unit.
type Program struct {
	// LabelOrder is the optional `labels a < b < c;` declaration giving
	// the security lattice; empty means the default public < secret.
	LabelOrder []string
	Structs    map[string]*StructDef
	Funcs      map[string]*FuncDef // free functions and methods (qualified)
	// Order preserves declaration order of functions for reporting.
	Order []string
}

// StructDef is a struct declaration.
type StructDef struct {
	Name   string
	Fields []Field
	Pos    Pos
}

// Field is one struct field.
type Field struct {
	Name string
	Type Type
}

// FieldType looks up a field's type.
func (s *StructDef) FieldType(name string) (Type, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f.Type, true
		}
	}
	return Type{}, false
}

// FuncDef is a function or method definition. Methods are stored under the
// qualified name "Struct::method" with the receiver as the first
// parameter.
type FuncDef struct {
	Name    string // qualified name
	Params  []Param
	Ret     Type
	Body    []Stmt
	Pos     Pos
	IsAssoc bool // associated function without self (Struct::new)
}

// Param is one function parameter.
type Param struct {
	Name string
	Type Type
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	Position() Pos
}

// LetStmt is `let [mut] x [: T] = expr;` optionally annotated with a
// security label (`#[label(l)]`).
type LetStmt struct {
	Name    string
	Mut     bool
	Decl    *Type // nil = inferred
	Init    Expr
	Label   string // "" = unlabeled (defaults to lattice bottom)
	Pos     Pos
	SetType Type // filled by the type checker
}

// AssignStmt is `lvalue = expr;` where lvalue is a variable or a field
// path rooted at a variable.
type AssignStmt struct {
	Target LValue
	Value  Expr
	Pos    Pos
}

// LValue is a variable with an optional field path (x, x.f, x.f.g).
type LValue struct {
	Root string
	Path []string
	Pos  Pos
}

// String renders the lvalue.
func (lv LValue) String() string {
	if len(lv.Path) == 0 {
		return lv.Root
	}
	return lv.Root + "." + strings.Join(lv.Path, ".")
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// IfStmt is `if cond { } [else { }]`.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// WhileStmt is `while cond { }`.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Pos  Pos
}

// ReturnStmt is `return [expr];`.
type ReturnStmt struct {
	Value Expr // nil for bare return
	Pos   Pos
}

func (*LetStmt) stmtNode()    {}
func (*AssignStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}
func (*IfStmt) stmtNode()     {}
func (*WhileStmt) stmtNode()  {}
func (*ReturnStmt) stmtNode() {}

// Position implements Stmt.
func (s *LetStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *AssignStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *ExprStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *IfStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *WhileStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *ReturnStmt) Position() Pos { return s.Pos }

// Expr is an expression node.
type Expr interface {
	exprNode()
	Position() Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   Pos
}

// BoolLit is true/false.
type BoolLit struct {
	Value bool
	Pos   Pos
}

// StrLit is a string literal.
type StrLit struct {
	Value string
	Pos   Pos
}

// VecLit is vec![e1, e2, ...].
type VecLit struct {
	Elems []Expr
	Pos   Pos
}

// VarRef reads a variable.
type VarRef struct {
	Name string
	Pos  Pos
}

// FieldAccess reads expr.field.
type FieldAccess struct {
	X     Expr
	Field string
	Pos   Pos
}

// BorrowExpr is &x or &mut x (argument position only).
type BorrowExpr struct {
	X   Expr // VarRef or FieldAccess
	Mut bool
	Pos Pos
}

// CallExpr calls a free or associated function: name(args) or
// Struct::assoc(args). Builtins (println, assert, …) also land here.
type CallExpr struct {
	Name string // possibly qualified with ::
	Args []Expr
	Pos  Pos
}

// MethodCall is recv.method(args); the receiver is auto-borrowed per the
// method's self parameter.
type MethodCall struct {
	Recv   Expr
	Method string
	Args   []Expr
	Pos    Pos
}

// StructLit is Name { field: expr, ... }.
type StructLit struct {
	Name   string
	Fields map[string]Expr
	Pos    Pos
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   Kind // Plus..Ge, AmpAmp, Pipe2
	L, R Expr
	Pos  Pos
}

// UnaryExpr is !x or -x.
type UnaryExpr struct {
	Op  Kind // Bang or Minus
	X   Expr
	Pos Pos
}

func (*IntLit) exprNode()      {}
func (*BoolLit) exprNode()     {}
func (*StrLit) exprNode()      {}
func (*VecLit) exprNode()      {}
func (*VarRef) exprNode()      {}
func (*FieldAccess) exprNode() {}
func (*BorrowExpr) exprNode()  {}
func (*CallExpr) exprNode()    {}
func (*MethodCall) exprNode()  {}
func (*StructLit) exprNode()   {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}

// Position implements Expr.
func (e *IntLit) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *BoolLit) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *StrLit) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *VecLit) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *VarRef) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *FieldAccess) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *BorrowExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *CallExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *MethodCall) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *StructLit) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *BinaryExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *UnaryExpr) Position() Pos { return e.Pos }

// Builtins recognized by the checker, interpreter, and IFC analysis.
// println is the public output channel; assert checks a boolean at run
// time; vec_len/vec_get/vec_push operate on vectors; declassify lowers a
// value's security label (a trusted operation); assert_label_max is a
// static assertion checked by the verifier.
var Builtins = map[string]bool{
	"println":          true,
	"assert":           true,
	"vec_len":          true,
	"vec_get":          true,
	"vec_push":         true,
	"declassify":       true,
	"assert_label_max": true,
}

// QualifiedName joins a struct and method name.
func QualifiedName(recv, method string) string {
	return fmt.Sprintf("%s::%s", recv, method)
}
