package main

import (
	"math"
	"net/http"
	"testing"

	"repro/internal/tensor"
)

func flipBit(t *tensor.Tensor, elem int, bit uint) *tensor.Tensor {
	d := append([]float32(nil), t.Data()...)
	d[elem] = math.Float32frombits(math.Float32bits(d[elem]) ^ 1<<bit)
	return tensor.FromSlice(d, t.Shape()...)
}

func TestCheckerFlagsOneFlippedBit(t *testing.T) {
	ref := tensor.FromSlice([]float32{0.25, -1.5, 3, 1e-8, 7, 0}, 2, 3)
	same := tensor.FromSlice(append([]float32(nil), ref.Data()...), 2, 3)
	if !sameBits(ref, same) || bitsHash(ref) != bitsHash(same) {
		t.Fatal("identical tensors compare unequal")
	}
	for elem := 0; elem < 6; elem++ {
		for _, bit := range []uint{0, 13, 31} { // lowest mantissa bit, a middle one, the sign
			got := flipBit(ref, elem, bit)
			if sameBits(ref, got) {
				t.Errorf("element %d bit %d: flip not seen by sameBits", elem, bit)
			}
			if bitsHash(ref) == bitsHash(got) {
				t.Errorf("element %d bit %d: flip not seen by bitsHash", elem, bit)
			}
			if sameOutputs(map[string]*tensor.Tensor{"y": ref}, map[string]*tensor.Tensor{"y": got}) {
				t.Errorf("element %d bit %d: flip not seen by sameOutputs", elem, bit)
			}
		}
	}
	if sameBits(ref, tensor.FromSlice(ref.Data(), 3, 2)) {
		t.Error("same data under another shape compares equal")
	}
	if sameOutputs(map[string]*tensor.Tensor{"y": ref}, map[string]*tensor.Tensor{"z": same}) {
		t.Error("outputs under different names compare equal")
	}
	if allFinite(tensor.FromSlice([]float32{1, float32(math.Inf(1))}, 2)) || allFinite(tensor.FromSlice([]float32{float32(math.NaN())}, 1)) {
		t.Error("Inf or NaN passed the finiteness check")
	}
}

// The same flip on the HTTP path: a response body one bit away from its
// reference is a failed operation, not a slow success.
func TestFlippedBitIsAFailedOp(t *testing.T) {
	ref := []byte(`{"model":"m","outputs":{"y":{"shape":[1],"data":[0.5]}}}`)
	w := &serveHTTP{refs: [][]byte{ref}}
	if o := w.judge(0, append([]byte(nil), ref...), http.StatusOK, nil); o != opOK {
		t.Fatalf("reference body judged %d", o)
	}
	bad := append([]byte(nil), ref...)
	bad[len(bad)-6] ^= 1 // "0.5" -> "0.4"
	var tl tally
	tl.add(w.judge(0, bad, http.StatusOK, nil), 0)
	if tl.n[opWrong] != 1 || tl.failed() != 1 || len(tl.lat) != 0 {
		t.Errorf("flipped bit tallied as %v with %d latency samples", tl.n, len(tl.lat))
	}
	if o := w.judge(0, nil, http.StatusServiceUnavailable, nil); o != opRefused {
		t.Errorf("503 judged %d, want refused", o)
	}
	if o := w.judge(0, nil, http.StatusGatewayTimeout, nil); o != opExpired {
		t.Errorf("504 judged %d, want expired", o)
	}
}
