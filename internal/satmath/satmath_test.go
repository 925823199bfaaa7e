package satmath

import (
	"math"
	"testing"
)

func TestMul(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{0, math.MaxUint64, 0},
		{1, math.MaxUint64, math.MaxUint64},
		{3, 5, 15},
		{1 << 32, 1 << 31, 1 << 63},
		{1 << 32, 1 << 32, math.MaxUint64},  // exactly 2^64
		{math.MaxUint64, 2, math.MaxUint64}, // wraps to MaxUint64-1 unclamped
		{math.MaxUint64, math.MaxUint64, math.MaxUint64},
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAdd(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 2, 3},
		{math.MaxUint64, 0, math.MaxUint64},
		{math.MaxUint64, 1, math.MaxUint64}, // wraps to 0 unclamped
		{math.MaxUint64 - 1, 1, math.MaxUint64},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64},
	}
	for _, c := range cases {
		if got := Add(c.a, c.b); got != c.want {
			t.Errorf("Add(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
