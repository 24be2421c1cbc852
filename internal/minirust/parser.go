package minirust

import (
	"fmt"
	"strconv"
)

// ParseError is a syntax error with position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: parse error: %s", e.Pos, e.Msg) }

// Parse lexes and parses a program.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.program()
}

type parser struct {
	toks []Token
	pos  int
	// noStructLit suppresses struct-literal parsing inside if/while
	// conditions (the same restriction rustc applies).
	noStructLit bool
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) peek() Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k Kind) (Token, bool) {
	if p.at(k) {
		return p.advance(), true
	}
	return Token{}, false
}

func (p *parser) expect(k Kind) (Token, error) {
	if p.at(k) {
		return p.advance(), nil
	}
	return Token{}, &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf("expected %s, found %s", k, p.cur())}
}

func (p *parser) errf(pos Pos, format string, args ...any) error {
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) program() (*Program, error) {
	prog := &Program{
		Structs: make(map[string]*StructDef),
		Funcs:   make(map[string]*FuncDef),
	}
	if p.at(KwLabels) {
		if err := p.labelsDecl(prog); err != nil {
			return nil, err
		}
	}
	for !p.at(EOF) {
		switch p.cur().Kind {
		case KwStruct:
			s, err := p.structDef()
			if err != nil {
				return nil, err
			}
			if _, dup := prog.Structs[s.Name]; dup {
				return nil, p.errf(s.Pos, "duplicate struct %s", s.Name)
			}
			prog.Structs[s.Name] = s
		case KwImpl:
			if err := p.implBlock(prog); err != nil {
				return nil, err
			}
		case KwFn:
			f, err := p.fnDef("")
			if err != nil {
				return nil, err
			}
			if err := addFunc(prog, f); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(p.cur().Pos, "expected struct, impl, or fn, found %s", p.cur())
		}
	}
	return prog, nil
}

func addFunc(prog *Program, f *FuncDef) error {
	if _, dup := prog.Funcs[f.Name]; dup {
		return &ParseError{Pos: f.Pos, Msg: fmt.Sprintf("duplicate function %s", f.Name)}
	}
	prog.Funcs[f.Name] = f
	prog.Order = append(prog.Order, f.Name)
	return nil
}

// labelsDecl := "labels" IDENT ("<" IDENT)* ";"
func (p *parser) labelsDecl(prog *Program) error {
	p.advance() // labels
	first, err := p.expect(IDENT)
	if err != nil {
		return err
	}
	prog.LabelOrder = []string{first.Text}
	for p.at(Lt) {
		p.advance()
		next, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		prog.LabelOrder = append(prog.LabelOrder, next.Text)
	}
	_, err = p.expect(Semi)
	return err
}

func (p *parser) structDef() (*StructDef, error) {
	start := p.advance() // struct
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	s := &StructDef{Name: name.Text, Pos: start.Pos}
	for !p.at(RBrace) {
		fname, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		ft, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		for _, existing := range s.Fields {
			if existing.Name == fname.Text {
				return nil, p.errf(fname.Pos, "duplicate field %s", fname.Text)
			}
		}
		s.Fields = append(s.Fields, Field{Name: fname.Text, Type: ft})
		if _, ok := p.accept(Comma); !ok {
			break
		}
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) implBlock(prog *Program) error {
	p.advance() // impl
	name, err := p.expect(IDENT)
	if err != nil {
		return err
	}
	if _, ok := prog.Structs[name.Text]; !ok {
		return p.errf(name.Pos, "impl for unknown struct %s", name.Text)
	}
	if _, err := p.expect(LBrace); err != nil {
		return err
	}
	for !p.at(RBrace) {
		f, err := p.fnDef(name.Text)
		if err != nil {
			return err
		}
		if err := addFunc(prog, f); err != nil {
			return err
		}
	}
	_, err = p.expect(RBrace)
	return err
}

// fnDef parses a function. Inside an impl block (recv != ""), `&self`,
// `&mut self`, and `self` receiver sugar is accepted as the first
// parameter.
func (p *parser) fnDef(recv string) (*FuncDef, error) {
	start, err := p.expect(KwFn)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	f := &FuncDef{Pos: start.Pos, Ret: TypeUnit}
	if recv != "" {
		f.Name = QualifiedName(recv, name.Text)
	} else {
		f.Name = name.Text
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	f.IsAssoc = true
	first := true
	for !p.at(RParen) {
		if !first {
			if _, err := p.expect(Comma); err != nil {
				return nil, err
			}
		}
		first = false
		// Receiver sugar.
		if recv != "" && len(f.Params) == 0 {
			if param, ok, err := p.recvParam(recv); err != nil {
				return nil, err
			} else if ok {
				f.Params = append(f.Params, param)
				f.IsAssoc = false
				continue
			}
		}
		pname, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		pt, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		if pname.Text == "self" {
			f.IsAssoc = false
		}
		f.Params = append(f.Params, Param{Name: pname.Text, Type: pt})
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if _, ok := p.accept(Arrow); ok {
		rt, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		f.Ret = rt
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// recvParam tries to parse `self`, `&self`, or `&mut self`, returning the
// desugared parameter.
func (p *parser) recvParam(recv string) (Param, bool, error) {
	recvType := Type{Name: recv}
	if p.at(IDENT) && p.cur().Text == "self" && p.peek().Kind != Colon {
		p.advance()
		return Param{Name: "self", Type: recvType}, true, nil
	}
	if p.at(Amp) {
		// Lookahead: & [mut] self
		save := p.pos
		p.advance()
		mut := false
		if _, ok := p.accept(KwMut); ok {
			mut = true
		}
		if p.at(IDENT) && p.cur().Text == "self" {
			p.advance()
			return Param{Name: "self", Type: RefTo(recvType, mut)}, true, nil
		}
		p.pos = save
	}
	return Param{}, false, nil
}

// typeExpr := "&" "mut"? typeExpr | "Vec" "<" typeExpr ">" | "(" ")" | IDENT
func (p *parser) typeExpr() (Type, error) {
	if _, ok := p.accept(Amp); ok {
		mut := false
		if _, ok := p.accept(KwMut); ok {
			mut = true
		}
		inner, err := p.typeExpr()
		if err != nil {
			return Type{}, err
		}
		return RefTo(inner, mut), nil
	}
	if _, ok := p.accept(LParen); ok {
		if _, err := p.expect(RParen); err != nil {
			return Type{}, err
		}
		return TypeUnit, nil
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return Type{}, err
	}
	if name.Text == "Vec" {
		if _, err := p.expect(Lt); err != nil {
			return Type{}, err
		}
		elem, err := p.typeExpr()
		if err != nil {
			return Type{}, err
		}
		if _, err := p.expect(Gt); err != nil {
			return Type{}, err
		}
		return VecOf(elem), nil
	}
	return Type{Name: name.Text}, nil
}

func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.at(RBrace) {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	return stmts, nil
}

// annotation := "#" "[" IDENT "(" IDENT ")" "]"; only label(...) is known.
func (p *parser) annotation() (string, error) {
	p.advance() // #
	if _, err := p.expect(LBracket); err != nil {
		return "", err
	}
	kind, err := p.expect(IDENT)
	if err != nil {
		return "", err
	}
	if kind.Text != "label" {
		return "", p.errf(kind.Pos, "unknown annotation %q (only label is supported)", kind.Text)
	}
	if _, err := p.expect(LParen); err != nil {
		return "", err
	}
	val, err := p.expect(IDENT)
	if err != nil {
		return "", err
	}
	if _, err := p.expect(RParen); err != nil {
		return "", err
	}
	if _, err := p.expect(RBracket); err != nil {
		return "", err
	}
	return val.Text, nil
}

func (p *parser) stmt() (Stmt, error) {
	label := ""
	for p.at(Hash) {
		l, err := p.annotation()
		if err != nil {
			return nil, err
		}
		label = l
	}
	if label != "" && !p.at(KwLet) {
		return nil, p.errf(p.cur().Pos, "#[label] must annotate a let statement")
	}
	switch p.cur().Kind {
	case KwLet:
		return p.letStmt(label)
	case KwIf:
		return p.ifStmt()
	case KwWhile:
		return p.whileStmt()
	case KwReturn:
		start := p.advance()
		if _, ok := p.accept(Semi); ok {
			return &ReturnStmt{Pos: start.Pos}, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ReturnStmt{Value: e, Pos: start.Pos}, nil
	default:
		return p.exprOrAssign()
	}
}

func (p *parser) letStmt(label string) (Stmt, error) {
	start := p.advance() // let
	mut := false
	if _, ok := p.accept(KwMut); ok {
		mut = true
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	var decl *Type
	if _, ok := p.accept(Colon); ok {
		t, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		decl = &t
	}
	if _, err := p.expect(Assign); err != nil {
		return nil, err
	}
	init, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &LetStmt{Name: name.Text, Mut: mut, Decl: decl, Init: init, Label: label, Pos: start.Pos}, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	start := p.advance() // if
	cond, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &IfStmt{Cond: cond, Then: then, Pos: start.Pos}
	if _, ok := p.accept(KwElse); ok {
		if p.at(KwIf) {
			elif, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			node.Else = []Stmt{elif}
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			node.Else = els
		}
	}
	return node, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	start := p.advance() // while
	cond, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Pos: start.Pos}, nil
}

// condExpr parses an expression with struct literals disabled.
func (p *parser) condExpr() (Expr, error) {
	saved := p.noStructLit
	p.noStructLit = true
	e, err := p.expr()
	p.noStructLit = saved
	return e, err
}

func (p *parser) exprOrAssign() (Stmt, error) {
	start := p.cur().Pos
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, ok := p.accept(Assign); ok {
		lv, err := toLValue(e)
		if err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &AssignStmt{Target: lv, Value: val, Pos: start}, nil
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &ExprStmt{X: e, Pos: start}, nil
}

// toLValue converts an expression to an assignable path.
func toLValue(e Expr) (LValue, error) {
	switch v := e.(type) {
	case *VarRef:
		return LValue{Root: v.Name, Pos: v.Pos}, nil
	case *FieldAccess:
		inner, err := toLValue(v.X)
		if err != nil {
			return LValue{}, err
		}
		inner.Path = append(inner.Path, v.Field)
		return inner, nil
	default:
		return LValue{}, &ParseError{Pos: e.Position(), Msg: "invalid assignment target"}
	}
}

// Expression grammar, precedence climbing.

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(Pipe2) {
		op := p.advance()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: Pipe2, L: l, R: r, Pos: op.Pos}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.at(AmpAmp) {
		op := p.advance()
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: AmpAmp, L: l, R: r, Pos: op.Pos}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case Eq, Ne, Lt, Gt, Le, Ge:
		op := p.advance()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op.Kind, L: l, R: r, Pos: op.Pos}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(Plus) || p.at(Minus) {
		op := p.advance()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op.Kind, L: l, R: r, Pos: op.Pos}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.at(Star) || p.at(Slash) || p.at(Percent) {
		op := p.advance()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op.Kind, L: l, R: r, Pos: op.Pos}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	switch p.cur().Kind {
	case Bang, Minus:
		op := p.advance()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op.Kind, X: x, Pos: op.Pos}, nil
	case Amp:
		op := p.advance()
		mut := false
		if _, ok := p.accept(KwMut); ok {
			mut = true
		}
		x, err := p.postfixExpr()
		if err != nil {
			return nil, err
		}
		switch x.(type) {
		case *VarRef, *FieldAccess:
		default:
			return nil, p.errf(op.Pos, "can only borrow variables and fields")
		}
		return &BorrowExpr{X: x, Mut: mut, Pos: op.Pos}, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (Expr, error) {
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for p.at(Dot) {
		p.advance()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.at(LParen) {
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			e = &MethodCall{Recv: e, Method: name.Text, Args: args, Pos: name.Pos}
		} else {
			e = &FieldAccess{X: e, Field: name.Text, Pos: name.Pos}
		}
	}
	return e, nil
}

func (p *parser) callArgs() ([]Expr, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	var args []Expr
	// Struct literals are legal again inside parentheses.
	saved := p.noStructLit
	p.noStructLit = false
	defer func() { p.noStructLit = saved }()
	for !p.at(RParen) {
		if len(args) > 0 {
			if _, err := p.expect(Comma); err != nil {
				return nil, err
			}
		}
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) primaryExpr() (Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case INT:
		p.advance()
		v, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			return nil, p.errf(tok.Pos, "integer out of range: %s", tok.Text)
		}
		return &IntLit{Value: v, Pos: tok.Pos}, nil
	case STRING:
		p.advance()
		return &StrLit{Value: tok.Text, Pos: tok.Pos}, nil
	case KwTrue:
		p.advance()
		return &BoolLit{Value: true, Pos: tok.Pos}, nil
	case KwFalse:
		p.advance()
		return &BoolLit{Value: false, Pos: tok.Pos}, nil
	case KwVec:
		p.advance()
		if _, err := p.expect(Bang); err != nil {
			return nil, err
		}
		if _, err := p.expect(LBracket); err != nil {
			return nil, err
		}
		var elems []Expr
		saved := p.noStructLit
		p.noStructLit = false
		for !p.at(RBracket) {
			if len(elems) > 0 {
				if _, err := p.expect(Comma); err != nil {
					return nil, err
				}
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		p.noStructLit = saved
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
		return &VecLit{Elems: elems, Pos: tok.Pos}, nil
	case LParen:
		p.advance()
		saved := p.noStructLit
		p.noStructLit = false
		e, err := p.expr()
		p.noStructLit = saved
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil
	case IDENT:
		p.advance()
		name := tok.Text
		// Qualified call: Struct::assoc(args).
		if p.at(ColonColon) {
			p.advance()
			meth, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Name: QualifiedName(name, meth.Text), Args: args, Pos: tok.Pos}, nil
		}
		// Call: name(args).
		if p.at(LParen) {
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Name: name, Args: args, Pos: tok.Pos}, nil
		}
		// Struct literal: Name { field: expr, ... }.
		if p.at(LBrace) && !p.noStructLit {
			p.advance()
			fields := make(map[string]Expr)
			for !p.at(RBrace) {
				if len(fields) > 0 {
					if _, err := p.expect(Comma); err != nil {
						return nil, err
					}
					if p.at(RBrace) {
						break
					}
				}
				fname, err := p.expect(IDENT)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(Colon); err != nil {
					return nil, err
				}
				fe, err := p.expr()
				if err != nil {
					return nil, err
				}
				if _, dup := fields[fname.Text]; dup {
					return nil, p.errf(fname.Pos, "duplicate field %s in literal", fname.Text)
				}
				fields[fname.Text] = fe
			}
			if _, err := p.expect(RBrace); err != nil {
				return nil, err
			}
			return &StructLit{Name: name, Fields: fields, Pos: tok.Pos}, nil
		}
		return &VarRef{Name: name, Pos: tok.Pos}, nil
	}
	return nil, p.errf(tok.Pos, "expected expression, found %s", tok)
}
