//go:build !race

package stegdb

const raceEnabled = false
