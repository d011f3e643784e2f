package cim

import (
	"reflect"
	"sort"
	"testing"

	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/term"
)

// TestFindCandidatesInPlaceScan pins the in-place subset scan against
// both the LinearMatching oracle and plain UnifyAll matching, on the two
// argument shapes where binding order matters: a variable repeated on
// the scanned side (the second occurrence must see the first's binding)
// and an attribute path over a variable the same entry binds. Entries
// that fail part-way through unification sit between matching ones, so
// a binding leaked from a failed entry would reject the next match; the
// caller's θ must come back untouched.
func TestFindCandidatesInPlaceScan(t *testing.T) {
	i, s := func(n int64) term.Value { return term.Int(n) }, func(v string) term.Value { return term.Str(v) }
	tup := func(vs ...term.Value) term.Value { return term.Tuple(vs) }
	cases := []struct {
		inv     string
		call    domain.Call
		entries []domain.Call
		want    []domain.Call
	}{
		{
			inv:  "X >= Y => d:f(Y) >= d:g(X, X).",
			call: call("d", "f", i(2)),
			entries: []domain.Call{
				call("d", "g", i(1), i(1)), // condition fails: 1 < 2
				call("d", "g", i(2), i(3)), // fails at the repeat, X=2 bound
				call("d", "g", i(2), i(2)),
				call("d", "g", i(3), s("a")), // fails at the repeat, X=3 bound
				call("d", "g", i(3), i(3)),
				call("d", "g", i(4)), // wrong arity
				call("d", "h", i(4), i(4)),
			},
			want: []domain.Call{call("d", "g", i(2), i(2)), call("d", "g", i(3), i(3))},
		},
		{
			inv:  "true => d:h(Y) >= d:k(X, X.1).",
			call: call("d", "h", i(0)),
			entries: []domain.Call{
				call("d", "k", tup(i(1), i(2)), i(2)), // path mismatch after binding X
				call("d", "k", tup(i(1), i(2)), i(1)),
				call("d", "k", i(5), i(5)), // path does not resolve on an Int
				call("d", "k", tup(s("a")), s("a")),
				call("d", "k", tup(), i(1)), // tuple index out of range
			},
			want: []domain.Call{call("d", "k", tup(i(1), i(2)), i(1)), call("d", "k", tup(s("a")), s("a"))},
		},
	}
	keys := func(cs []domain.Call) []string {
		out := make([]string, len(cs))
		for j, c := range cs {
			out[j] = c.Key()
		}
		sort.Strings(out)
		return out
	}
	for _, tc := range cases {
		inv, err := lang.ParseInvariant(tc.inv)
		if err != nil {
			t.Fatal(err)
		}
		theta, ok := unifyTemplate(term.Subst{}, &inv.Left, tc.call)
		if !ok {
			t.Fatalf("%s: call %s does not match the left side", tc.inv, tc.call)
		}
		// Reference: the clone-per-entry matching the scan replaces.
		var ref []domain.Call
		for _, e := range tc.entries {
			if th, ok := unifyTemplate(theta, &inv.Right, e); ok && condHolds(inv.Cond, th) {
				ref = append(ref, e)
			}
		}
		if !reflect.DeepEqual(keys(ref), keys(tc.want)) {
			t.Fatalf("%s: UnifyAll matching finds %v, test expects %v", tc.inv, keys(ref), keys(tc.want))
		}
		for _, linear := range []bool{false, true} {
			cfg := testCfg()
			cfg.LinearMatching = linear
			m := New(nil, cfg)
			for _, e := range tc.entries {
				m.Store(e, []term.Value{i(1)}, true, domain.CostVector{})
			}
			before := theta.Clone()
			var got []domain.Call
			m.findCandidates(newCtx(), theta, inv.Cond, &inv.Right, false, func(e *Entry) {
				got = append(got, e.Call)
			})
			if !reflect.DeepEqual(keys(got), keys(tc.want)) {
				t.Errorf("%s linear=%v: candidates %v, want %v", tc.inv, linear, keys(got), keys(tc.want))
			}
			if !reflect.DeepEqual(theta, before) {
				t.Errorf("%s linear=%v: scan changed the caller's θ from %v to %v", tc.inv, linear, before, theta)
			}
		}
	}
}
