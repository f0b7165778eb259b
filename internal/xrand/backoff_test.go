package xrand

import (
	"hash/fnv"
	"testing"
	"time"
)

// refHash and refBackoff are the formulas the retry loops in core, dist
// and cosim each computed inline before sharing Backoff and HashString;
// they are the reference the shared functions must reproduce exactly.
func refHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

func refBackoff(base, maxDelay time.Duration, attempt int, rng *Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// TestBackoffMatchesReference pins every caller's schedule: over a grid of
// (seed, key, attempt), each caller's split chain and (base, cap) yield
// the same delays through Backoff and HashString as through the inline
// formula they replaced.
func TestBackoffMatchesReference(t *testing.T) {
	type chain struct {
		name      string
		base, cap time.Duration
		rng       func(seed uint64, key string, attempt int, hash func(string) uint64) *Rand
	}
	chains := []chain{
		{"core retry", 50 * time.Millisecond, 2 * time.Second, func(seed uint64, key string, attempt int, hash func(string) uint64) *Rand {
			return New(seed).Split(hash(key)).Split(uint64(attempt%3) + 1).Split(uint64(attempt) + 0x5eed)
		}},
		{"dist dispatch", 100 * time.Millisecond, 2 * time.Second, func(seed uint64, key string, attempt int, hash func(string) uint64) *Rand {
			return New(seed).Split(hash(key)).Split(uint64(attempt) + 0x5eed)
		}},
		{"cosim restart", 50 * time.Millisecond, time.Second, func(seed uint64, _ string, attempt int, _ func(string) uint64) *Rand {
			return New(seed).Split(0xc0517).Split(uint64(attempt) + 1)
		}},
	}
	for _, c := range chains {
		for _, seed := range []uint64{1, 888, 1<<63 + 5} {
			for _, key := range []string{"", "Antutu Mem", "3DMark Wild Life", "job-000042"} {
				for attempt := 0; attempt < 12; attempt++ {
					want := refBackoff(c.base, c.cap, attempt, c.rng(seed, key, attempt, refHash))
					got := Backoff(c.base, c.cap, attempt, c.rng(seed, key, attempt, HashString))
					if got != want {
						t.Fatalf("%s seed %d key %q attempt %d: Backoff = %v, reference %v", c.name, seed, key, attempt, got, want)
					}
					if lo, hi := c.base/2, c.cap*3/2; got < lo || got >= hi {
						t.Fatalf("%s attempt %d: %v outside [%v, %v)", c.name, attempt, got, lo, hi)
					}
				}
			}
		}
	}
}

// TestHashStringFNV1a pins the label hash to the published FNV-1a 64-bit
// test vectors.
func TestHashStringFNV1a(t *testing.T) {
	for s, want := range map[string]uint64{"": 0xcbf29ce484222325, "a": 0xaf63dc4c8601ec8c, "foobar": 0x85944171f73967e8} {
		if got := HashString(s); got != want {
			t.Errorf("HashString(%q) = %#x, want %#x", s, got, want)
		}
	}
}
