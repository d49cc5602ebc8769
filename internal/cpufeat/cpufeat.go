// Package cpufeat probes the processor, once at start-up, for the
// instruction sets that the repository's assembly kernels need. The kernels
// in internal/gnn and internal/ann read it and fall back to their pure-Go
// code when a feature is missing; each of those packages copies the answer
// into its own variable, so its tests can switch the assembly off.
package cpufeat

// AVX2 reports whether the processor has AVX2 and the operating system saves
// the YMM registers. It is false off amd64.
func AVX2() bool { return hasAVX2 }
