package tour

import "testing"

// TestAtVisitsEveryPlaceNearFirst pins the tour's shape for every small
// team: from every start and in both directions, the n stops are a
// permutation of [0, n), stop 0 is the start, and stop k sits ⌈k/2⌉ from the
// start around the circle.
func TestAtVisitsEveryPlaceNearFirst(t *testing.T) {
	for n := 1; n <= 17; n++ {
		for start := 0; start < n; start++ {
			for _, dir := range []int{1, -1} {
				seen := make([]bool, n)
				for k := 0; k < n; k++ {
					at := At(start, dir, k, n)
					if at < 0 || at >= n {
						t.Fatalf("n=%d start=%d dir=%d: stop %d is %d, outside [0, %d)", n, start, dir, k, at, n)
					}
					if seen[at] {
						t.Fatalf("n=%d start=%d dir=%d: stop %d revisits %d", n, start, dir, k, at)
					}
					seen[at] = true
					d := (at - start + n) % n
					if n-d < d {
						d = n - d
					}
					if want := (k + 1) / 2; d != want {
						t.Fatalf("n=%d start=%d dir=%d: stop %d (%d) sits %d away, want %d", n, start, dir, k, at, d, want)
					}
				}
				if At(start, dir, 0, n) != start {
					t.Fatalf("n=%d start=%d dir=%d: stop 0 is not the start", n, start, dir)
				}
			}
		}
	}
}

// refMix64 and refStart are the tour-start draw as the ws backend wrote it
// before it moved to Rand: a splitmix64 counter advanced by the golden
// gamma, the start taken modulo n and the direction from the draw's top bit.
func refMix64(z uint64) uint64 {
	z *= 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func refStart(rng *uint64, n int) (int, int) {
	*rng += 0x9E3779B97F4A7C15
	r := refMix64(*rng)
	start := int(r % uint64(n))
	flip := 1
	if r&(1<<63) != 0 {
		flip = -1
	}
	return start, flip
}

// TestRandReplaysReferenceDraws pins that moving the tours onto Rand left
// scheduling unchanged: for the zero seed and the ws per-rank seeds (ranks
// 0–3), Start replays the reference draw for draw, over team sizes that vary
// from draw to draw.
func TestRandReplaysReferenceDraws(t *testing.T) {
	const draws = 2000
	seeds := []uint64{0} // the zero value
	for rank := uint64(0); rank < 4; rank++ {
		seeds = append(seeds, rank*0x6C62272E07BB0142) // ws's per-rank seeds
	}
	for _, seed := range seeds {
		ref, r := seed, Rand(seed)
		for i := 0; i < draws; i++ {
			n := 1 + i%17
			ws, wd := refStart(&ref, n)
			gs, gd := r.Start(n)
			if gs != ws || gd != wd {
				t.Fatalf("seed %#x draw %d (n=%d): Start = (%d, %d), reference (%d, %d)", seed, i, n, gs, gd, ws, wd)
			}
		}
		if Mix64(seed) != refMix64(seed) {
			t.Fatalf("Mix64(%#x) differs from the reference", seed)
		}
	}
}
