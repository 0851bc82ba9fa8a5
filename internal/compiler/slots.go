package compiler

import (
	"fmt"

	"memhogs/internal/lang"
)

// Scalar-environment slot assignment. The interpreter used to evaluate
// every subscript and loop bound against a lang.Env (map[string]int64),
// which put a string hash and map probe on the per-element hot path —
// profiling showed it dominating the indirect benchmarks. Compile
// instead interns every scalar name (params, loop variables, formals,
// symbolic stride parameters) into a dense slot table and attaches
// slot-resolved forms (cscalar, caffine) to the executable nodes; the
// runner then works over flat []int64 / []bool vectors. The lang forms
// stay on the nodes as the source of truth for analysis and listings.

// cscalar is a lang.Scalar with its symbol resolved to a slot. name is
// kept only for error messages.
type cscalar struct {
	name            string // "" for constants
	slot            int32
	scale, div, off int64
}

// cterm is one term of a compiled affine: coef·vals[slot], with the
// coefficient optionally scaled by a bound stride parameter.
type cterm struct {
	slot      int32
	coefSlot  int32 // slot of the symbolic stride parameter, -1 if none
	coef      int64
	varName   string // for error messages
	paramName string
}

// caffine is a lang.Affine with every symbol resolved to a slot.
type caffine struct {
	k     int64
	terms []cterm
}

// slotOf interns a scalar name, assigning slots densely in first-use
// order (deterministic: the finalize walk visits nodes in source order).
func (c *Compiled) slotOf(name string) int32 {
	if s, ok := c.slots[name]; ok {
		return s
	}
	s := int32(len(c.slotNames))
	c.slots[name] = s
	c.slotNames = append(c.slotNames, name)
	return s
}

func (c *Compiled) compileScalar(s lang.Scalar) cscalar {
	if s.Name == "" {
		return cscalar{off: s.Offset}
	}
	return cscalar{name: s.Name, slot: c.slotOf(s.Name), scale: s.Scale, div: s.Div, off: s.Offset}
}

func (c *Compiled) compileAffine(a *lang.Affine) caffine {
	ca := caffine{k: a.Const}
	if len(a.Terms) > 0 {
		ca.terms = make([]cterm, 0, len(a.Terms))
	}
	for _, t := range a.Terms {
		ct := cterm{slot: c.slotOf(t.Var), coefSlot: -1, coef: t.Coef, varName: t.Var}
		if t.CoefParam != "" {
			ct.coefSlot = c.slotOf(t.CoefParam)
			ct.paramName = t.CoefParam
		}
		ca.terms = append(ca.terms, ct)
	}
	return ca
}

// finalize assigns slots across the whole program and attaches compiled
// scalar/affine forms to every executable node. Proc bodies are walked
// in declaration order (once each — xcall shares the compiled body), so
// slot numbering is deterministic. It also gives every reference its
// dense array IDs and, inside a loop, its stream index in that loop.
func (c *Compiled) finalize() {
	c.slots = map[string]int32{}
	for _, pr := range c.Prog.Procs {
		c.compileSlotStmts(c.procs[pr], nil)
	}
	c.compileSlotStmts(c.Main, nil)
}

// arrayID returns a's dense ID, its position in Prog.Arrays, or -1 if
// the program does not declare it.
func (c *Compiled) arrayID(a *lang.Array) int32 {
	for i, b := range c.Prog.Arrays {
		if b == a {
			return int32(i)
		}
	}
	return -1
}

// compileRef attaches the resolved forms of one reference. A reference
// inside a loop, the owner, gets a stream in it, listed among the
// owner's affine streams when it is affine; an indirect one is also
// listed for Bind's data check.
func (c *Compiled) compileRef(x *xref, owner *xloop) {
	x.stream = -1
	x.arrID = c.mustArrayID(x.arr)
	if x.lin != nil {
		x.clin = c.compileAffine(x.lin)
	}
	if x.ind != nil {
		x.idxID = c.mustArrayID(x.ind.idxArr)
		x.cidx = c.compileAffine(x.ind.idxLin)
		c.indirect = append(c.indirect, x)
	}
	if owner != nil {
		x.stream = int32(len(owner.streams))
		owner.streams = append(owner.streams, x)
		if x.ind == nil {
			owner.affine = append(owner.affine, x.stream)
		}
	}
}

// mustArrayID is arrayID for an array a reference names, which the
// parser always declares.
func (c *Compiled) mustArrayID(a *lang.Array) int32 {
	id := c.arrayID(a)
	if id < 0 {
		panic("compiler: array " + a.Name + " is not declared in program " + c.Prog.Name)
	}
	return id
}

// compileSlotStmts compiles list, whose assignments run directly inside
// the loop owner (nil outside every loop).
func (c *Compiled) compileSlotStmts(list []xstmt, owner *xloop) {
	for _, s := range list {
		switch x := s.(type) {
		case *xloop:
			x.vSlot = c.slotOf(x.v)
			x.clo = c.compileScalar(x.lo)
			x.chi = c.compileScalar(x.hi)
			for _, d := range x.dirs {
				c.compileRef(&d.xref, x)
				for _, g := range d.gates {
					d.gateSlots = append(d.gateSlots, c.slotOf(g))
				}
			}
			c.compileSlotStmts(x.body, x)
			// A quiet loop is innermost and owns an indirect
			// reference, which keeps it from a strip plan; Bind
			// resolves its quiet plan.
			quiet := len(x.affine) < len(x.streams)
			for _, st := range x.body {
				_, isAssign := st.(*xassign)
				quiet = quiet && isAssign
			}
			x.plan = -1
			if quiet {
				x.plan = int32(len(c.quietLoops))
				c.quietLoops = append(c.quietLoops, x)
			}
		case *xassign:
			for _, site := range x.sites {
				c.compileRef(&site.xref, owner)
			}
		case *xcall:
			// The shared proc body was compiled by the proc walk; only
			// the call's own arguments and formal bindings live here.
			x.formalSlots = make([]int32, len(x.proc.Formals))
			for i, f := range x.proc.Formals {
				x.formalSlots[i] = c.slotOf(f)
			}
			x.cargs = make([]cscalar, len(x.args))
			for i, a := range x.args {
				x.cargs[i] = c.compileScalar(a)
			}
		}
	}
}

// evalScalar is cscalar evaluation against the runner's slot vectors,
// matching lang.Scalar.Eval exactly (including error text).
func (r *runner) evalScalar(s *cscalar) (int64, error) {
	if s.name == "" {
		return s.off, nil
	}
	if !r.bound[s.slot] {
		return 0, fmt.Errorf("lang: unbound symbol %q", s.name)
	}
	x := s.scale * r.vals[s.slot]
	if s.div > 1 {
		x /= s.div
	}
	return x + s.off, nil
}

// evalAffine is caffine evaluation against the runner's slot vectors,
// matching lang.Affine.Eval exactly (including error text).
func (r *runner) evalAffine(a *caffine) (int64, error) {
	v := a.k
	for i := range a.terms {
		t := &a.terms[i]
		if !r.bound[t.slot] {
			return 0, fmt.Errorf("lang: unbound variable %q in subscript", t.varName)
		}
		c := t.coef
		if t.coefSlot >= 0 {
			if !r.bound[t.coefSlot] {
				return 0, fmt.Errorf("lang: unbound stride parameter %q", t.paramName)
			}
			c *= r.vals[t.coefSlot]
		}
		v += c * r.vals[t.slot]
	}
	return v, nil
}
