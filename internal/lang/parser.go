package lang

import "fmt"

// Parse builds a Program from surface syntax:
//
//	program matvec
//	param N, M
//	known N = 3200
//	known M = 16384
//	array A[N][M] of float64
//	array x[M] of float64
//	array y[N] of float64
//
//	proc update(n) {
//	    for i = 0 to n-1 {
//	        y[i] = y[i] + 1 @ 10
//	    }
//	}
//
//	for i = 0 to N-1 {
//	    for j = 0 to M-1 {
//	        y[i] = y[i] + A[i][j] * x[j] @ 20
//	    }
//	}
//	call update(N)
//
// "@ n" attaches an explicit per-execution cost in nanoseconds. Element
// types float64/int64 are 8 bytes; float32/int32 are 4; or a byte
// count can be given directly.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: &Program{Known: map[string]int64{}}}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// MustParse is Parse that panics on error; for compiled-in workloads
// and tests.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks []token
	pos  int
	prog *Program
	// scope tracks lexically enclosing loop variables; formals tracks
	// the current procedure's formal parameters. Both are in scope for
	// subscripts, but only formals and params may act as symbolic
	// coefficients.
	scope   []string
	formals []string
}

// peek and next clamp at the trailing EOF sentinel: error paths may
// call them after next() has already consumed it (e.g. a source
// truncated mid-declaration).
func (p *parser) peek() token {
	if p.pos >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}
func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) accept(text string) bool {
	if p.peek().kind != tokEOF && p.peek().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, got %s", text, p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %s", t)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) intLit() (int64, error) {
	t := p.peek()
	if t.kind != tokNumber || t.num != float64(int64(t.num)) {
		return 0, p.errf("expected integer, got %s", t)
	}
	p.pos++
	return int64(t.num), nil
}

func (p *parser) parseProgram() error {
	if err := p.expect("program"); err != nil {
		return err
	}
	name, err := p.ident()
	if err != nil {
		return err
	}
	p.prog.Name = name
	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		switch t.text {
		case "param":
			p.pos++
			for {
				n, err := p.ident()
				if err != nil {
					return err
				}
				p.prog.Params = append(p.prog.Params, n)
				if !p.accept(",") {
					break
				}
			}
		case "known":
			p.pos++
			n, err := p.ident()
			if err != nil {
				return err
			}
			if err := p.expect("="); err != nil {
				return err
			}
			v, err := p.intLit()
			if err != nil {
				return err
			}
			if !p.prog.HasParam(n) {
				return p.errf("known %s: not a declared param", n)
			}
			p.prog.Known[n] = v
		case "array":
			p.pos++
			if err := p.parseArray(); err != nil {
				return err
			}
		case "proc":
			p.pos++
			if err := p.parseProc(); err != nil {
				return err
			}
		default:
			s, err := p.parseStmt()
			if err != nil {
				return err
			}
			p.prog.Body = append(p.prog.Body, s)
		}
	}
	if len(p.prog.Body) == 0 {
		return fmt.Errorf("program %s has no statements", p.prog.Name)
	}
	return nil
}

func (p *parser) parseArray() error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if p.prog.FindArray(name) != nil {
		return p.errf("array %s redeclared", name)
	}
	a := &Array{Name: name}
	for p.accept("[") {
		s, err := p.parseScalar()
		if err != nil {
			return err
		}
		a.Dims = append(a.Dims, s)
		if err := p.expect("]"); err != nil {
			return err
		}
	}
	if len(a.Dims) == 0 {
		return p.errf("array %s has no dimensions", name)
	}
	if err := p.expect("of"); err != nil {
		return err
	}
	t := p.next()
	switch {
	case t.kind == tokIdent:
		switch t.text {
		case "float64", "int64", "complex32": // complex32: pair of float32? keep 8B
			a.ElemSize = 8
		case "float32", "int32":
			a.ElemSize = 4
		case "complex64":
			a.ElemSize = 8
		case "complex128":
			a.ElemSize = 16
		default:
			return p.errf("unknown element type %q", t.text)
		}
	case t.kind == tokNumber:
		a.ElemSize = int(t.num)
		if a.ElemSize <= 0 {
			return p.errf("bad element size %s", t.text)
		}
	default:
		return p.errf("expected element type, got %s", t)
	}
	p.prog.Arrays = append(p.prog.Arrays, a)
	return nil
}

func (p *parser) parseProc() error {
	line := p.peek().line
	name, err := p.ident()
	if err != nil {
		return err
	}
	pr := &Proc{Name: name, Line: line}
	if err := p.expect("("); err != nil {
		return err
	}
	if !p.accept(")") {
		for {
			f, err := p.ident()
			if err != nil {
				return err
			}
			pr.Formals = append(pr.Formals, f)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return err
		}
	}
	// Register before parsing the body to allow recursion-free lookup;
	// formals enter scope as symbolic (param-like) names.
	p.prog.Procs = append(p.prog.Procs, pr)
	savedFormals := p.formals
	p.formals = append(append([]string{}, p.formals...), pr.Formals...)
	body, err := p.parseBlock()
	p.formals = savedFormals
	if err != nil {
		return err
	}
	pr.Body = body
	return nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.accept("}") {
		if p.peek().kind == tokEOF {
			return nil, p.errf("unexpected end of input in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errf("expected statement, got %s", t)
	}
	switch t.text {
	case "for":
		return p.parseFor()
	case "call":
		return p.parseCall()
	default:
		return p.parseAssign()
	}
}

func (p *parser) parseFor() (Stmt, error) {
	line := p.peek().line
	p.pos++ // "for"
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	lo, err := p.parseScalar()
	if err != nil {
		return nil, err
	}
	if err := p.expect("to"); err != nil {
		return nil, err
	}
	hi, err := p.parseScalar()
	if err != nil {
		return nil, err
	}
	step := int64(1)
	if p.accept("step") {
		step, err = p.intLit()
		if err != nil {
			return nil, err
		}
		if step <= 0 {
			return nil, p.errf("loop step must be positive")
		}
	}
	p.scope = append(p.scope, v)
	body, err := p.parseBlock()
	p.scope = p.scope[:len(p.scope)-1]
	if err != nil {
		return nil, err
	}
	return &Loop{Var: v, Lo: lo, Hi: hi, Step: step, Body: body, Line: line}, nil
}

func (p *parser) parseCall() (Stmt, error) {
	p.pos++ // "call"
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	pr := p.prog.FindProc(name)
	if pr == nil {
		return nil, p.errf("call of undeclared proc %s", name)
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var args []Scalar
	if !p.accept(")") {
		for {
			a, err := p.parseScalar()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if len(args) != len(pr.Formals) {
		return nil, p.errf("call %s: %d args, want %d", name, len(args), len(pr.Formals))
	}
	return &Call{Proc: pr, Args: args}, nil
}

func (p *parser) parseAssign() (Stmt, error) {
	line := p.peek().line
	lhs, err := p.parseRef(true)
	if err != nil {
		return nil, err
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	a := &Assign{LHS: lhs, RHS: rhs, Line: line}
	if p.accept("@") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errf("expected cost after @, got %s", t)
		}
		a.CostNS = t.num
	}
	return a, nil
}

// parseScalar parses a restricted scalar expression:
//
//	INT | [INT*] IDENT [/INT] [(+|-) INT]
func (p *parser) parseScalar() (Scalar, error) {
	t := p.peek()
	if t.kind == tokNumber {
		v, err := p.intLit()
		if err != nil {
			return Scalar{}, err
		}
		// allow INT * IDENT
		if p.accept("*") {
			name, err := p.ident()
			if err != nil {
				return Scalar{}, err
			}
			s := Scalar{Name: name, Scale: v}
			return p.scalarSuffix(s)
		}
		return Const(v), nil
	}
	if t.kind == tokIdent {
		name, err := p.ident()
		if err != nil {
			return Scalar{}, err
		}
		return p.scalarSuffix(Scalar{Name: name, Scale: 1})
	}
	return Scalar{}, p.errf("expected scalar, got %s", t)
}

func (p *parser) scalarSuffix(s Scalar) (Scalar, error) {
	if p.accept("/") {
		d, err := p.intLit()
		if err != nil {
			return Scalar{}, err
		}
		if d <= 0 {
			return Scalar{}, p.errf("non-positive divisor")
		}
		s.Div = d
	}
	if p.accept("+") {
		v, err := p.intLit()
		if err != nil {
			return Scalar{}, err
		}
		s.Offset = v
	} else if p.accept("-") {
		v, err := p.intLit()
		if err != nil {
			return Scalar{}, err
		}
		s.Offset = -v
	}
	return s, nil
}

// inScope reports whether name is a lexically enclosing loop variable.
func (p *parser) inScope(name string) bool {
	for _, v := range p.scope {
		if v == name {
			return true
		}
	}
	return false
}

// isSymbolic reports whether name may act as a symbolic coefficient: a
// declared param or a procedure formal, but not a loop variable.
func (p *parser) isSymbolic(name string) bool {
	if p.inScope(name) {
		return false
	}
	if p.prog.HasParam(name) {
		return true
	}
	for _, f := range p.formals {
		if f == name {
			return true
		}
	}
	return false
}

// parseRef parses IDENT[idx][idx]... with affine or indirect
// subscripts.
func (p *parser) parseRef(write bool) (*Ref, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	arr := p.prog.FindArray(name)
	if arr == nil {
		return nil, p.errf("reference to undeclared array %s", name)
	}
	r := &Ref{Array: arr, Write: write}
	for p.accept("[") {
		idx, err := p.parseIndex()
		if err != nil {
			return nil, err
		}
		r.Index = append(r.Index, idx)
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if len(r.Index) != len(arr.Dims) {
		return nil, p.errf("array %s: %d subscripts, want %d", name, len(r.Index), len(arr.Dims))
	}
	return r, nil
}

// parseIndex parses one subscript: an affine expression, possibly an
// indirect array read. Affine terms:
//
//	INT | IDENT | INT*IDENT | IDENT*IDENT (one must be a param) |
//	ARRAY[affine]
//
// joined with + and -.
func (p *parser) parseIndex() (Index, error) {
	// Indirect if the first token is a declared array name followed by
	// '[' — in which case the whole subscript must be that single
	// indirect term (no arithmetic around indirection; the paper's
	// a[b[i]] form).
	if t := p.peek(); t.kind == tokIdent && p.prog.FindArray(t.text) != nil {
		name, _ := p.ident()
		arr := p.prog.FindArray(name)
		if err := p.expect("["); err != nil {
			return nil, err
		}
		inner, err := p.parseAffine()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		if len(arr.Dims) != 1 {
			return nil, p.errf("indirection array %s must be one-dimensional", name)
		}
		return &Indirect{Array: arr, Idx: inner}, nil
	}
	return p.parseAffine()
}

func (p *parser) parseAffine() (*Affine, error) {
	a := &Affine{}
	sign := int64(1)
	if p.accept("-") {
		sign = -1
	}
	for {
		if err := p.parseAffineTerm(a, sign); err != nil {
			return nil, err
		}
		if p.accept("+") {
			sign = 1
		} else if p.accept("-") {
			sign = -1
		} else {
			break
		}
	}
	return a.normalize(), nil
}

func (p *parser) parseAffineTerm(a *Affine, sign int64) error {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		v, err := p.intLit()
		if err != nil {
			return err
		}
		if p.accept("*") {
			name, err := p.ident()
			if err != nil {
				return err
			}
			return p.addTerm(a, name, sign*v)
		}
		a.Const += sign * v
		return nil
	case tokIdent:
		name, err := p.ident()
		if err != nil {
			return err
		}
		if p.accept("*") {
			u := p.peek()
			if u.kind == tokNumber {
				v, err := p.intLit()
				if err != nil {
					return err
				}
				return p.addTerm(a, name, sign*v)
			}
			other, err := p.ident()
			if err != nil {
				return err
			}
			// param*var (or var*param): the param becomes a symbolic
			// coefficient.
			nameIsParam := p.isSymbolic(name)
			otherIsParam := p.isSymbolic(other)
			switch {
			case nameIsParam && !otherIsParam:
				a.Terms = append(a.Terms, Term{Var: other, Coef: sign, CoefParam: name})
			case otherIsParam && !nameIsParam:
				a.Terms = append(a.Terms, Term{Var: name, Coef: sign, CoefParam: other})
			default:
				return p.errf("product %s*%s: exactly one factor must be a param", name, other)
			}
			return nil
		}
		return p.addTerm(a, name, sign)
	default:
		return p.errf("expected subscript term, got %s", t)
	}
}

// addTerm adds coef·name, distinguishing loop vars from params: a
// param alone contributes a symbolic additive term, which we fold as a
// variable term too (the evaluator binds params in the same Env).
func (p *parser) addTerm(a *Affine, name string, coef int64) error {
	a.Terms = append(a.Terms, Term{Var: name, Coef: coef})
	return nil
}

// parseExpr parses + and - over terms.
func (p *parser) parseExpr() (ExprNode, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op byte
		switch {
		case p.accept("+"):
			op = '+'
		case p.accept("-"):
			op = '-'
		default:
			return l, nil
		}
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
}

// parseTerm parses * and / over factors.
func (p *parser) parseTerm() (ExprNode, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		var op byte
		switch {
		case p.accept("*"):
			op = '*'
		case p.accept("/"):
			op = '/'
		default:
			return l, nil
		}
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
}

func (p *parser) parseFactor() (ExprNode, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.pos++
		return &NumExpr{Val: t.num}, nil
	case t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		if p.prog.FindArray(t.text) != nil {
			r, err := p.parseRef(false)
			if err != nil {
				return nil, err
			}
			return &RefExpr{Ref: r}, nil
		}
		name, _ := p.ident()
		return &VarExpr{Name: name}, nil
	default:
		return nil, p.errf("expected expression, got %s", t)
	}
}
