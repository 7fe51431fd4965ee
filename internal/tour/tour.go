// Package tour holds the two pieces every raider in the runtime shares: the
// near-first victim tour and the published-slot directory (Dir) that raiders
// scan. The omp overflow-ring raid, GLTO's idle-drain tour, iomp's deque
// steal and the ws backend's stream steal all walk the tour; the omp ring
// raid and GLTO's idle drain both scan Dirs, one per team rank and one per
// stream. A tour of n places starts somewhere and alternates outward from
// there — start, start±1, start∓1, start±2, ... — so a thief reaches near
// victims before far ones and thieves with different starts (or directions)
// diverge at once instead of converging on one victim. Rand draws randomized
// starts from a one-owner splitmix64 stream, with no math/rand and no shared
// state.
package tour

// Mix64 is the splitmix64 finalizer: a bijective avalanche over uint64, so
// consecutive counter values map to decorrelated outputs.
func Mix64(z uint64) uint64 {
	z *= 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Rand is a splitmix64 stream: a counter advanced by the golden gamma and
// mixed by Mix64. The zero value is a valid stream; Rand(seed) starts one
// elsewhere. It is not safe for concurrent use: one owner draws from it.
type Rand uint64

// Start draws a tour over n places: a start in [0, n) and a direction, +1
// or -1, from the draw's top bit.
func (r *Rand) Start(n int) (start, dir int) {
	*r += 0x9E3779B97F4A7C15
	z := Mix64(uint64(*r))
	return int(z % uint64(n)), 1 - 2*int(z>>63)
}

// At is stop k (0 <= k < n) of the tour of n places from start in
// direction dir: offsets 0, +1, -1, +2, -2, ... times dir. The n stops visit
// every place exactly once, stop k sits ⌈k/2⌉ from start, and for even n
// the antipode start+n/2 is the last stop.
func At(start, dir, k, n int) int {
	d := (k + 1) / 2
	if k%2 == 0 {
		d = -d
	}
	return ((start+dir*d)%n + n) % n
}
