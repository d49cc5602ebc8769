//go:build race

package sampler

const raceEnabled = true
