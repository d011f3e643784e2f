package term

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzDecodeJSON: arbitrary JSON must never panic the value decoder, and
// anything it accepts must re-encode and decode to an equal value.
func FuzzDecodeJSON(f *testing.F) {
	for _, s := range []string{
		`{"t":"s","s":"x"}`,
		`{"t":"i","s":"42"}`,
		`{"t":"f","f":2.5}`,
		`{"t":"b","b":true}`,
		`{"t":"tu","l":[{"t":"i","s":"1"}]}`,
		`{"t":"r","r":[{"n":"a","v":{"t":"s","s":"y"}}]}`,
		`{"t":"zz"}`,
		`{"t":"i","s":"notanint"}`,
		`{}`,
		`{"t":"tu","l":[{"t":"tu","l":[{"t":"tu","l":[]}]}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var w JSONValue
		if err := json.Unmarshal(raw, &w); err != nil {
			return
		}
		v, err := DecodeJSON(w)
		if err != nil {
			return
		}
		w2, err := EncodeJSON(v)
		if err != nil {
			t.Fatalf("decoded %s but cannot re-encode: %v", raw, err)
		}
		v2, err := DecodeJSON(w2)
		if err != nil {
			t.Fatalf("re-encoded form does not decode: %v", err)
		}
		if !Equal(v, v2) {
			t.Fatalf("round trip changed value: %s -> %s", v, v2)
		}
	})
}

// valueGen builds values from fuzz bytes. The alphabets are small on
// purpose, so independently built values collide often enough to
// exercise both outcomes of Equal.
type valueGen struct{ b []byte }

func (g *valueGen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

// genStrBytes mixes plain letters with quotes, backslashes and bytes
// that are not valid UTF-8 on their own.
var genStrBytes = []byte{'a', 'b', '"', '\'', '\\', 0xff, 0xc3, 0xa9, 'x', '\n', 0}

func (g *valueGen) str() string {
	n := int(g.next() % 5)
	s := make([]byte, n)
	for i := range s {
		s[i] = genStrBytes[int(g.next())%len(genStrBytes)]
	}
	return string(s)
}

// genFloats covers NaN, both zeros, infinities and integral values.
var genFloats = []float64{math.NaN(), 0, math.Copysign(0, -1), 1, -1, 2, 2.5, 1e300, math.Inf(1), math.Inf(-1)}

func (g *valueGen) float() float64 {
	c := g.next()
	if c < 0xf0 {
		return genFloats[int(c)%len(genFloats)]
	}
	// Raw bits, including NaN payloads other than math.NaN's.
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(g.next())
	}
	return math.Float64frombits(bits)
}

func (g *valueGen) value(depth int) Value {
	switch c := g.next() % 8; {
	case c == 0:
		return Str(g.str())
	case c == 1:
		return Int(int8(g.next()))
	case c == 2:
		return Float(g.float())
	case c == 3:
		return Bool(g.next()%2 == 0)
	case c == 4 && depth < 3:
		t := make(Tuple, g.next()%3)
		for i := range t {
			t[i] = g.value(depth + 1)
		}
		return t
	case c == 5 && depth < 3:
		fs := make([]Field, g.next()%3)
		for i := range fs {
			fs[i] = Field{Name: g.str(), Val: g.value(depth + 1)}
		}
		return NewRecord(fs...)
	case c == 6 && depth == 0:
		return nil // only at the top: a composite never holds nil
	}
	return Int(int8(g.next()))
}

// counterpart derives a second value from the first: itself, the same
// number of the other numeric kind, or the same text as another kind.
func (g *valueGen) counterpart(v Value) Value {
	switch x := v.(type) {
	case Int:
		return Float(float64(x))
	case Float:
		if f := float64(x); f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return Int(int64(f))
		}
	case Str:
		if g.next()%2 == 0 {
			return Tuple{x}
		}
	case Tuple:
		// A record whose single field holds the same components.
		return NewRecord(Field{Name: "1", Val: x})
	}
	return v
}

// FuzzEqual: the allocation-free comparisons in Equal must agree with
// comparing canonical keys, for every pair of values, nil included. The
// seed corpus under testdata/fuzz/FuzzEqual covers quotes, backslashes and
// invalid UTF-8 in strings, NaN payloads, both zeros, Int against Float of
// the same number, nested tuples and records, and nil.
func FuzzEqual(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		g := &valueGen{b: raw}
		a := g.value(0)
		var b Value
		switch g.next() % 3 {
		case 0:
			b = g.value(0)
		case 1:
			b = g.counterpart(a)
		default:
			b = a
		}
		want := keyEqual(a, b)
		if got := Equal(a, b); got != want {
			t.Fatalf("Equal(%v, %v) = %v, keys say %v", a, b, got, want)
		}
		if got := Equal(b, a); got != want {
			t.Fatalf("Equal(%v, %v) = %v, keys say %v", b, a, got, want)
		}
	})
}

// keyEqual is the reference: equal canonical keys, nil equal only to nil.
func keyEqual(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Key() == b.Key()
}
