//go:build !race

package kvs

const raceEnabled = false
