//go:build !race

package ftl

const raceEnabled = false
