//go:build amd64 && !purego

package tensor

// hasAVX2 is fixed at start-up: the CPU has AVX2 and the OS saves the
// YMM state (CPUID + XGETBV, see matmul_amd64.s).
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// microTile4x16 and microTile4x8 accumulate a 4-row C tile of 16 or 8
// columns: c[r*ldc+x] (+)= Σ_l a[r*kc+l]·b[l*ldb+x], l ascending. Lanes
// run across output columns and each step is one VMULPS then one VADDPS
// — no FMA, no horizontal add — so every lane is the same chain of
// rounded multiply and rounded add that microStrip4 performs for that
// element, and the two kernels agree bit for bit.
//
//go:noescape
func microTile4x16(c *float32, ldc int, a *float32, kc int, b *float32, ldb int, first bool)

//go:noescape
func microTile4x8(c *float32, ldc int, a *float32, kc int, b *float32, ldb int, first bool)

// simdStrip runs the AVX2 tiles over a 4-row strip — c is four C rows
// ldc apart, a four packed A rows of length kc, b the packed kc×nc B
// panel — and returns how many leading columns it finished. The slice
// expressions are the bounds checks the assembly does not make.
func simdStrip(c []float32, ldc int, a []float32, kc int, b []float32, nc int, first bool) int {
	if !hasAVX2 || kc == 0 || nc < 8 {
		return 0
	}
	a = a[:4*kc]
	b = b[:kc*nc]
	c = c[:3*ldc+nc]
	j := 0
	for ; j+16 <= nc; j += 16 {
		microTile4x16(&c[j], ldc, &a[0], kc, &b[j], nc, first)
	}
	if j+8 <= nc {
		microTile4x8(&c[j], ldc, &a[0], kc, &b[j], nc, first)
		j += 8
	}
	return j
}
