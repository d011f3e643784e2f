package term

import (
	"fmt"
	"strings"
)

// Term is a syntactic term appearing in rules, queries and invariants:
// either a ground constant, or a variable optionally followed by an
// attribute path ($ans.1, P.name).
type Term struct {
	// Const is non-nil for constant terms.
	Const Value
	// Var is the variable name for variable terms ("" for constants).
	Var string
	// Path is the attribute path applied to the variable, possibly empty.
	Path []string
}

// C builds a constant term.
func C(v Value) Term { return Term{Const: v} }

// V builds a variable term.
func V(name string, path ...string) Term { return Term{Var: name, Path: path} }

// IsConst reports whether the term is a ground constant.
func (t Term) IsConst() bool { return t.Const != nil }

// IsVar reports whether the term is a bare variable (no attribute path).
func (t Term) IsVar() bool { return t.Const == nil && len(t.Path) == 0 }

// String renders the term in the mediator language syntax.
func (t Term) String() string {
	if t.IsConst() {
		return t.Const.String()
	}
	if len(t.Path) == 0 {
		return t.Var
	}
	return t.Var + "." + strings.Join(t.Path, ".")
}

// Vars appends the variable of t (if any) to dst and returns it.
func (t Term) Vars(dst []string) []string {
	if t.Var != "" {
		dst = append(dst, t.Var)
	}
	return dst
}

// Subst is a substitution: a binding environment mapping variable names to
// ground values.
type Subst map[string]Value

// Clone returns an independent copy of s.
func (s Subst) Clone() Subst {
	c := make(Subst, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Lookup returns the binding of a variable.
func (s Subst) Lookup(name string) (Value, bool) {
	v, ok := s[name]
	return v, ok
}

// Eval resolves a term to a ground value under the substitution. It fails
// if the term's variable is unbound or the attribute path does not resolve.
func (s Subst) Eval(t Term) (Value, error) {
	if t.IsConst() {
		return t.Const, nil
	}
	v, ok := s[t.Var]
	if !ok {
		return nil, fmt.Errorf("variable %s is unbound", t.Var)
	}
	if len(t.Path) == 0 {
		return v, nil
	}
	sel, err := Select(v, t.Path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t, err)
	}
	return sel, nil
}

// Ground reports whether t evaluates to a ground value under s.
func (s Subst) Ground(t Term) bool {
	if t.IsConst() {
		return true
	}
	_, ok := s[t.Var]
	return ok
}

// Unify matches a term against a ground value, extending the substitution.
// Constants must equal the value; bound variables must agree with their
// binding; unbound bare variables are bound to the value. Terms with
// attribute paths must already be resolvable and equal to the value (they
// cannot be bound, since the enclosing record is unknown).
func (s Subst) Unify(t Term, v Value) (Subst, bool) {
	bind, ok := s.match(t, v)
	if !ok {
		return nil, false
	}
	if !bind {
		return s, true
	}
	out := s.Clone()
	out[t.Var] = v
	return out, true
}

// match checks t against v under s without binding anything. ok reports
// agreement; bind reports that t is an unbound bare variable, which
// unification would bind to v.
func (s Subst) match(t Term, v Value) (bind, ok bool) {
	if t.IsConst() {
		return false, Equal(t.Const, v)
	}
	cur, bound := s[t.Var]
	if len(t.Path) > 0 {
		if !bound {
			return false, false
		}
		sel, err := Select(cur, t.Path)
		return false, err == nil && Equal(sel, v)
	}
	if bound {
		return false, Equal(cur, v)
	}
	return true, true
}

// UnifyAll unifies a list of terms against a list of ground values.
func (s Subst) UnifyAll(ts []Term, vs []Value) (Subst, bool) {
	if len(ts) != len(vs) {
		return nil, false
	}
	cur := s
	for i, t := range ts {
		next, ok := cur.Unify(t, vs[i])
		if !ok {
			return nil, false
		}
		cur = next
	}
	return cur, true
}

// BindAll is UnifyAll in place: it writes new bindings into s instead of
// cloning it, appending each newly bound variable to trail, and returns
// the extended trail. On a mismatch ok=false and s may hold part of the
// new bindings; either way Undo(trail) restores s.
func (s Subst) BindAll(ts []Term, vs []Value, trail []string) ([]string, bool) {
	if len(ts) != len(vs) {
		return trail, false
	}
	for i, t := range ts {
		bind, ok := s.match(t, vs[i])
		if !ok {
			return trail, false
		}
		if bind {
			s[t.Var] = vs[i]
			trail = append(trail, t.Var)
		}
	}
	return trail, true
}

// Undo removes the bindings BindAll recorded in trail.
func (s Subst) Undo(trail []string) {
	for _, name := range trail {
		delete(s, name)
	}
}

// RelOp is a comparison operator of the mediator language.
type RelOp int

// Comparison operators.
const (
	OpEQ RelOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// ParseRelOp recognizes a comparison operator token.
func ParseRelOp(s string) (RelOp, bool) {
	switch s {
	case "=", "==":
		return OpEQ, true
	case "!=", "<>":
		return OpNE, true
	case "<":
		return OpLT, true
	case "<=", "=<":
		return OpLE, true
	case ">":
		return OpGT, true
	case ">=", "=>":
		return OpGE, true
	}
	return 0, false
}

func (op RelOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	}
	return "?"
}

// Holds evaluates `a op b` over ground values.
func (op RelOp) Holds(a, b Value) (bool, error) {
	if op == OpEQ || op == OpNE {
		eq := Equal(a, b)
		// Numeric cross-kind equality (2 = 2.0) goes through Compare.
		if !eq {
			if _, aNum := Numeric(a); aNum {
				if _, bNum := Numeric(b); bNum {
					c, err := Compare(a, b)
					if err != nil {
						return false, err
					}
					eq = c == 0
				}
			}
		}
		if op == OpEQ {
			return eq, nil
		}
		return !eq, nil
	}
	c, err := Compare(a, b)
	if err != nil {
		return false, err
	}
	switch op {
	case OpLT:
		return c < 0, nil
	case OpLE:
		return c <= 0, nil
	case OpGT:
		return c > 0, nil
	case OpGE:
		return c >= 0, nil
	}
	return false, fmt.Errorf("unknown operator %v", op)
}
