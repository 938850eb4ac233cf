//go:build !amd64 || purego

package tensor

// simdStrip reports that no columns were vectorised: without the amd64
// assembly (other architectures, or -tags purego) the Go micro-tile
// computes every strip.
func simdStrip(c []float32, ldc int, a []float32, kc int, b []float32, nc int, first bool) int {
	return 0
}
