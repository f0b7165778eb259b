package xrand

import (
	"math"
	"testing"
)

// refBool is Bool as it compared before Threshold: through Float64. It is
// the reference the threshold path must reproduce draw for draw.
func refBool(r *Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// thresholdEdges are the p values whose rounding is easiest to get wrong:
// the clamps, signed zero, subnormals, 2^-53 steps and the neighbours of
// ordinary probabilities on both sides.
func thresholdEdges() []float64 {
	ps := []float64{
		0, math.Copysign(0, -1), 1, 0.5, -1, 2, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.Nextafter(0, 1), math.Nextafter(1, 0),
		0x1p-53, 0x1p-54, 3 * 0x1p-54, 1 - 0x1p-53, 0x1p-1022,
	}
	for _, p := range []float64{0x1p-53, 0.1, 0.3, 0.5, 1.0 / 3, 0.7, 0.9, 0.999} {
		ps = append(ps, math.Nextafter(p, -1), p, math.Nextafter(p, 1))
	}
	return ps
}

// TestThresholdEdges checks, for every edge p, that the integer bound
// splits the 53-bit draws exactly where Float64() < p does, and that the
// draw is consumed exactly when Bool consumes one.
func TestThresholdEdges(t *testing.T) {
	for _, p := range thresholdEdges() {
		th := NewThreshold(p)
		draws := !(p <= 0) && !(p >= 1)
		if got := th.lim <= 1<<53; got != draws {
			t.Errorf("p=%g: bound %#x draws=%v, Bool draws=%v", p, th.lim, got, draws)
			continue
		}
		if !draws {
			r, ref := New(1), New(1)
			if got, want := th.Draw(r), refBool(ref, p); got != want || r.s != ref.s {
				t.Errorf("p=%g: Draw = %v (state moved %v), want %v without a draw", p, got, r.s != ref.s, want)
			}
			continue
		}
		// Every 53-bit m around the bound, plus both ends of the range.
		for _, m := range []uint64{0, 1, th.lim - 1, th.lim, th.lim + 1, 1<<53 - 2, 1<<53 - 1} {
			if m >= 1<<53 {
				continue
			}
			if got, want := m < th.lim, float64(m)/(1<<53) < p; got != want {
				t.Errorf("p=%g m=%d: m < %d is %v, Float64() < p is %v", p, m, th.lim, got, want)
			}
		}
	}
	if th := NewThreshold(math.NaN()); th.lim != 0 {
		t.Errorf("NaN bound = %d, want 0 (draw, never hit)", th.lim)
	}
}

// TestThresholdDrawForDraw runs Bool, Threshold.Draw and the Float64
// reference side by side on seeded streams, over the edge values, over
// random p and over p placed on or next to the draw about to be made, and
// checks that they agree on every result and leave the generator in the
// same state after every call.
func TestThresholdDrawForDraw(t *testing.T) {
	for _, seed := range []uint64{0, 1, 888, 1<<63 + 5} {
		ref, viaBool, viaTh := New(seed), New(seed), New(seed)
		ps := New(seed ^ 0x7e57)
		edges := thresholdEdges()
		for i := 0; i < 200000; i++ {
			var p float64
			switch i % 5 {
			case 0:
				p = edges[i/4%len(edges)]
			case 1:
				p = ps.Float64()
			case 2:
				p = float64(ps.Uint64n(9)) / 8 // exact eighths, 0 and 1 included
			case 3:
				p = ps.Float64()*1.2 - 0.1 // strays outside [0, 1]
			default:
				// The next draw's own value, or a neighbour: the
				// comparison is decided at the bound.
				peek := *ref
				x := float64(peek.Uint64()>>11) / (1 << 53)
				p = math.Nextafter(x, [...]float64{-1, x, 2}[ps.Uint64n(3)])
			}
			want := refBool(ref, p)
			b := viaBool.Bool(p)
			d := NewThreshold(p).Draw(viaTh)
			if b != want || d != want {
				t.Fatalf("seed %d call %d p=%g: Bool=%v Draw=%v reference=%v", seed, i, p, b, d, want)
			}
			if viaBool.s != ref.s || viaTh.s != ref.s {
				t.Fatalf("seed %d call %d p=%g: generator state diverged", seed, i, p)
			}
		}
	}
}
