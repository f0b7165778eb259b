package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 1000", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	// Splitting must not advance the parent.
	p1 := New(7)
	if parent.Uint64() != p1.Uint64() {
		t.Fatal("Split advanced the parent state")
	}
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("children of distinct labels correlated: %d collisions", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split(5)
	b := New(9).Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered %d values, want 7", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestBool(t *testing.T) {
	r := New(6)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) fired %.3f of the time", frac)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %g, want ~1", variance)
	}
}

func TestJitterPositive(t *testing.T) {
	r := New(10)
	for i := 0; i < 10000; i++ {
		if v := r.Jitter(100, 0.5); v <= 0 {
			t.Fatalf("Jitter produced non-positive %g", v)
		}
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 10, 1000} {
		for _, s := range []float64{0.5, 1.0, 1.5} {
			for i := 0; i < 1000; i++ {
				v := r.Zipf(n, s)
				if v < 0 || v >= n {
					t.Fatalf("Zipf(%d, %g) = %d out of range", n, s, v)
				}
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(12)
	const n = 100000
	low, high := 0, 0
	for i := 0; i < n; i++ {
		v := r.Zipf(1000, 1.3)
		if v < 10 {
			low++
		}
		if v >= 500 {
			high++
		}
	}
	if low <= high {
		t.Fatalf("Zipf not skewed: %d low-rank vs %d high-rank draws", low, high)
	}
}

func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			if v := r.Float64(); v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickZipfInRange(t *testing.T) {
	f := func(seed uint64, n uint8, sRaw uint8) bool {
		size := int(n%100) + 1
		s := float64(sRaw%30)/10 + 0.1
		r := New(seed)
		for i := 0; i < 20; i++ {
			if v := r.Zipf(size, s); v < 0 || v >= size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
