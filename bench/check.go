package main

import (
	"math"

	"repro/internal/tensor"
)

// sameBits reports whether two tensors have the same shape and the
// same float32 bit patterns — the repo's determinism contract is
// bit-identity, so the checks compare bits, never tolerances (and a
// NaN equals only the same NaN).
func sameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !tensor.SameShape(a.Shape(), b.Shape()) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// sameOutputs compares two named output sets bit for bit.
func sameOutputs(a, b map[string]*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for name, at := range a {
		bt, ok := b[name]
		if !ok || !sameBits(at, bt) {
			return false
		}
	}
	return true
}

// bitsHash folds tensors' shapes and bit patterns into one FNV-1a
// hash, so a run step's outputs can be remembered in eight bytes and
// compared with a reference session's later.
func bitsHash(ts ...*tensor.Tensor) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= prime
		}
	}
	for _, t := range ts {
		for _, d := range t.Shape() {
			mix(uint32(d))
		}
		for _, v := range t.Data() {
			mix(math.Float32bits(v))
		}
	}
	return h
}

// allFinite reports whether every element is a finite number.
func allFinite(ts ...*tensor.Tensor) bool {
	for _, t := range ts {
		for _, v := range t.Data() {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
	}
	return true
}
