//go:build !amd64

package tensor

// f32Strips computes out = a×b over b's whole 8-column strips, leaving any
// leftover columns to MatMulF32Into. For each row of a, a strip's outputs
// accumulate in registers, from zero, over ascending k, and are stored
// once. This portable loop is the strip kernel on every platform without
// f32_amd64.s; `make vet` and `make test` build and test it for GOARCH=386.
func f32Strips(out, a, b *F32) {
	ac, bc := a.Cols, b.Cols
	for j := 0; j+8 <= bc; j += 8 {
		for i := 0; i < a.Rows; i++ {
			var c0, c1, c2, c3, c4, c5, c6, c7 float32
			for k, av := range a.Data[i*ac : (i+1)*ac] {
				bs := (*[8]float32)(b.Data[k*bc+j:])
				c0 += av * bs[0]
				c1 += av * bs[1]
				c2 += av * bs[2]
				c3 += av * bs[3]
				c4 += av * bs[4]
				c5 += av * bs[5]
				c6 += av * bs[6]
				c7 += av * bs[7]
			}
			o := (*[8]float32)(out.Data[i*bc+j:])
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c0, c1, c2, c3, c4, c5, c6, c7
		}
	}
}
