package models_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fuse"
	"repro/internal/sched"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.json from this build")

// fingerprintFile holds the committed fingerprint rows: GOARCH →
// workload → run ("single", "dist", "fused") → part ("losses", "vars",
// "infer") → FNV-64a in hex.
const fingerprintFile = "testdata/fingerprints.json"

type fingerprintRows map[string]map[string]map[string]map[string]string

// fnvFloat64s and fnvFloat32s hash values by their bits, every NaN as
// the one quiet NaN: a NaN's payload is not part of the contract.
func fnvFloat64s(h hash.Hash64, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		bits := math.Float64bits(x)
		if x != x {
			bits = 0x7ff8000000000000
		}
		binary.LittleEndian.PutUint64(b[:], bits)
		h.Write(b[:])
	}
}

func fnvFloat32s(h hash.Hash64, xs []float32) {
	var b [4]byte
	for _, x := range xs {
		bits := math.Float32bits(x)
		if x != x {
			bits = 0x7fc00000
		}
		binary.LittleEndian.PutUint32(b[:], bits)
		h.Write(b[:])
	}
}

// fnvNamed hashes named float32 vectors in name order, each name and
// length before its values.
func fnvNamed(m map[string][]float32) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s/%d:", n, len(m[n]))
		fnvFloat32s(h, m[n])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashFingerprint reduces a trajectory to one FNV-64a per part; a run
// with no inference leg has no "infer" part.
func hashFingerprint(fp fingerprint) map[string]string {
	h := fnv.New64a()
	fnvFloat64s(h, fp.losses)
	parts := map[string]string{"losses": fmt.Sprintf("%016x", h.Sum64()), "vars": fnvNamed(fp.vars)}
	if len(fp.infer) > 0 {
		parts["infer"] = fnvNamed(fp.infer)
	}
	return parts
}

// fusedFingerprint trains a width-2 fused array of the workload (LR
// scales 1 and ½) and fingerprints both trainees: losses lane after
// lane, and each trainee's parameters under "<k>/<name>".
func fusedFingerprint(t *testing.T, name string, trainSteps int) fingerprint {
	t.Helper()
	pool := sched.New(8)
	defer pool.Close()
	arr, err := fuse.New(name, fuse.Options{
		Width: 2, LRScales: []float32{1, 0.5}, Chunks: 4,
		Preset: core.PresetTiny, Seed: 3, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()
	if err := arr.Train(trainSteps); err != nil {
		t.Fatal(err)
	}
	fp := fingerprint{infer: map[string][]float32{}, vars: map[string][]float32{}}
	for k := 0; k < arr.Width(); k++ {
		fp.losses = append(fp.losses, arr.Losses(k)...)
		params := arr.TraineeParams(k)
		for i, pn := range arr.ParamNames() {
			fp.vars[fmt.Sprintf("%d/%s", k, pn)] = append([]float32(nil), params[i].Data()...)
		}
	}
	return fp
}

// TestWorkloadFingerprints holds the bits of all ten workloads across
// commits, where the determinism harness holds them across widths
// within one. Each workload runs three times at preset tiny for three
// steps, at intra-op 1: a session (workloadFingerprint: losses, trained
// variables, inference outputs), a 2-replica data-parallel trainer
// (distFingerprint) and, for the nine workloads that fuse, a width-2
// fused array. Every part is compared by its FNV-64a against the row of
// this GOARCH in testdata/fingerprints.json; -update rewrites that row.
// A change that moves bits on purpose rewrites the row and says why.
//
// Rows are keyed by GOARCH because the float64 libm paths may differ by
// architecture. The amd64 row assumes math.Exp's FMA body, which
// $GOROOT/src/math/exp_amd64.go switches to on CPUs with AVX and FMA;
// the machine that recorded the row and the CI runners have both. The
// pure-Go GEMM (-tags purego) must match the same row.
func TestWorkloadFingerprints(t *testing.T) {
	const trainSteps = 3
	got := map[string]map[string]map[string]string{}
	for _, name := range allNames {
		runs := map[string]map[string]string{
			"single": hashFingerprint(workloadFingerprint(t, name, 1, 1, trainSteps)),
			"dist":   hashFingerprint(distFingerprint(t, name, 2, 1, 1, trainSteps)),
		}
		if name != "deepq" { // deepq advances out-of-graph state per step and cannot fuse
			runs["fused"] = hashFingerprint(fusedFingerprint(t, name, trainSteps))
		}
		got[name] = runs
	}

	rows := fingerprintRows{}
	if b, err := os.ReadFile(fingerprintFile); err == nil {
		if err := json.Unmarshal(b, &rows); err != nil {
			t.Fatalf("%s: %v", fingerprintFile, err)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	arch := goruntime.GOARCH
	if *updateFingerprints {
		rows[arch] = got
		b, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote the %s row of %s", arch, fingerprintFile)
		return
	}
	want, ok := rows[arch]
	if !ok {
		t.Skipf("%s has no %s row; record one with go test ./internal/models -run TestWorkloadFingerprints -update", fingerprintFile, arch)
	}
	for _, name := range allNames {
		for run, parts := range got[name] {
			for part, h := range parts {
				if w := want[name][run][part]; w != h {
					t.Errorf("%s %s run: %s hash %s, want %s", name, run, part, h, w)
				}
			}
		}
		for run, parts := range want[name] {
			for part := range parts {
				if _, ok := got[name][run][part]; !ok {
					t.Errorf("%s %s run: no %s part, but %s records one", name, run, part, fingerprintFile)
				}
			}
		}
	}
}
