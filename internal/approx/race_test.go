//go:build race

package approx

// raceEnabled reports that this test binary runs under the race detector,
// where instrumentation overhead makes kernel-vs-scalar timing gates
// meaningless.
const raceEnabled = true
