package tensor

import "fmt"

// BroadcastShapes returns the NumPy-style broadcast of two shapes, or
// an error when they are incompatible. Dimensions align from the
// trailing end; a dimension broadcasts when either side is 1.
func BroadcastShapes(a, b []int) ([]int, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i >= n-len(a) {
			da = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			db = b[i-(n-len(b))]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast shapes %v and %v", a, b)
		}
	}
	return out, nil
}
