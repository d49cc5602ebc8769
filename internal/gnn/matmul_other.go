//go:build !amd64

package gnn

// hasAVX2 is false off amd64: the kernels are the pure-Go ones.
const hasAVX2 = false

func matMul(out, a, b *Matrix) { matMulGo(out, a, b) }

func matMulAT(out, a, b *Matrix) { matMulATGo(out, a, b) }

func meanPool(out, x *Matrix, rows []int32, fanout int) { meanPoolGo(out, x, rows, fanout) }

func relu(x []float32) { reluGo(x) }

func reluBackward(d, out []float32) { reluBackwardGo(d, out) }
