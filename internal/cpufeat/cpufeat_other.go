//go:build !amd64

package cpufeat

const hasAVX2 = false
