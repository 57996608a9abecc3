//go:build !amd64

package vec

import "unsafe"

// dot4Acc4 is dot4Acc4Go behind the assembly kernel's signature, for the
// architectures that have no assembly kernel.
func dot4Acc4(acc *[16]float64, a *float64, stride int, x *float64, n int) {
	dot4Acc4Go(acc, unsafe.Slice(a, 3*stride+n), stride, unsafe.Slice(x, n), n)
}
