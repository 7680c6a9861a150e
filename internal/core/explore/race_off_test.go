//go:build !race

package explore

// raceEnabled reports whether the test binary runs under the race
// detector, which changes allocation counts.
const raceEnabled = false
