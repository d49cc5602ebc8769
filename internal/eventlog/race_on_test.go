//go:build race

package eventlog

const raceEnabled = true
