package term

import "testing"

var allocSink bool

// TestEqualScalarAllocs gates the planning hot path: comparing scalars
// must not build canonical keys, so it allocates nothing.
func TestEqualScalarAllocs(t *testing.T) {
	pairs := [][2]Value{
		{Str("rope"), Str("rope")},
		{Str("rope"), Str("ropes")},
		{Int(7), Int(7)},
		{Int(7), Float(7)},
		{Float(2.5), Float(2.5)},
		{Bool(true), Bool(false)},
		{Str("7"), Int(7)},
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if n := testing.AllocsPerRun(100, func() { allocSink = Equal(a, b) }); n != 0 {
			t.Errorf("Equal(%v, %v) made %v allocations, want 0", a, b, n)
		}
	}
}
