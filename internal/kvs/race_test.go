//go:build race

package kvs

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool intentionally drops items and allocation guards are
// meaningless.
const raceEnabled = true
