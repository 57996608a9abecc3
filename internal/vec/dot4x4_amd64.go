package vec

// dot4Acc4 is dot4Acc4Go in SSE2 assembly (dot4x4_amd64.s): four rows'
// accumulator chains run at once, to the same bits. The caller guarantees
// that rows a, a+stride, a+2*stride and a+3*stride each have n readable
// elements, as does x, and that n is a multiple of 4.
//
//go:noescape
func dot4Acc4(acc *[16]float64, a *float64, stride int, x *float64, n int)
