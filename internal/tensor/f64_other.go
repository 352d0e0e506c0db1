//go:build !amd64

package tensor

// f64Axpy adds a·src[j] to dst[j] for j < len(dst). This portable loop and
// f64Dot8 are the float64 kernels' inner loops on every platform without
// f64_amd64.s; `make vet` and `make test` build and test them for
// GOARCH=386.
func f64Axpy(dst []float64, a float64, src []float64) {
	src = src[:len(dst)] // bounds-check elimination hint
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] += a * src[j]
		dst[j+1] += a * src[j+1]
		dst[j+2] += a * src[j+2]
		dst[j+3] += a * src[j+3]
	}
	for ; j < len(dst); j++ {
		dst[j] += a * src[j]
	}
}

// f64Dot8 adds Σₖ a[k]·b[c·len(a)+k], over ascending k, to out[c] for each
// of the 8 columns c.
func f64Dot8(out *[8]float64, a, b []float64) {
	for c := range out {
		brow := b[c*len(a) : (c+1)*len(a)]
		s := out[c]
		for k, av := range a {
			s += av * brow[k]
		}
		out[c] = s
	}
}
