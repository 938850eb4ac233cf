package fuse_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/fuse"
	"repro/internal/sched"
	"repro/internal/tensor"

	_ "repro/internal/models/all"
)

// TestFusedArrayCheckpointResume pins the fused checkpoint contract:
// save a fused array mid-run, restore it into a fresh array, and the
// continuation is bit-identical to never having stopped — per-step
// losses and final parameters. This only holds because a stacked
// update's accumulators (velocity, RMS statistic, Adam moments and
// the shared step counter) are "<var>/slot/<name>" graph variables the
// checkpoint captures, not hidden op state: a restored momentum or
// Adam trajectory must continue from the saved accumulators, and the
// resumed step counter keys both the per-(step, chunk) data seeds and
// Adam's bias correction. The two workloads cover both slot shapes —
// attention trains with Momentum (stacked velocity), autoenc with Adam
// (stacked moments plus the shape-{1} step counter). The step counter
// travels in the engine's checkpoint header, not through the caller.
func TestFusedArrayCheckpointResume(t *testing.T) {
	pool := sched.New(8)
	defer pool.Close()
	const pre, post = 3, 3
	for _, name := range []string{"attention", "autoenc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			opts := fuse.Options{
				Width:    2,
				LRScales: []float32{1, 0.5},
				Preset:   core.PresetTiny,
				Seed:     11,
				Pool:     pool,
			}
			newArray := func() *fuse.Array {
				arr, err := fuse.New(name, opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(arr.Close)
				return arr
			}

			// Reference: pre+post uninterrupted steps.
			ref := newArray()
			if err := ref.Train(pre + post); err != nil {
				t.Fatal(err)
			}

			// Interrupted run: pre steps, checkpoint, discard.
			src := newArray()
			if err := src.Train(pre); err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := src.SaveCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			src.Close()

			// Fresh array, restored mid-trajectory, trained to the end.
			resumed := newArray()
			if err := resumed.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatal(err)
			}
			if got := resumed.Steps(); got != pre {
				t.Fatalf("resumed step counter %d, want %d", got, pre)
			}
			if err := resumed.Train(post); err != nil {
				t.Fatal(err)
			}

			for k := 0; k < opts.Width; k++ {
				refTail := ref.Losses(k)[pre:]
				resTail := resumed.Losses(k)
				if len(resTail) != post {
					t.Fatalf("trainee %d: resumed %d losses, want %d", k, len(resTail), post)
				}
				for i := range refTail {
					if refTail[i] != resTail[i] {
						t.Errorf("trainee %d step %d: resumed loss %v != uninterrupted %v",
							k, pre+i, resTail[i], refTail[i])
					}
				}
				refP, resP := ref.TraineeParams(k), resumed.TraineeParams(k)
				for i := range refP {
					if d := tensor.MaxAbsDiff(refP[i], resP[i]); d != 0 {
						t.Errorf("trainee %d param %s: resumed differs (max |Δ| %g)",
							k, ref.ParamNames()[i], d)
					}
				}
			}
		})
	}
}

// TestFusedCheckpointRejectsMismatch: a fused image resumes only the
// stream it was saved from. A different seed or chunk grid would draw
// different per-chunk data and silently diverge; a different width has
// differently shaped stacks; and a header cut short at any byte must
// surface as an error, never a panic or a half-restored step counter.
func TestFusedCheckpointRejectsMismatch(t *testing.T) {
	pool := sched.New(2)
	defer pool.Close()
	base := fuse.Options{Width: 2, Chunks: 4, Preset: core.PresetTiny, Seed: 11, Pool: pool}
	newArray := func(o fuse.Options) *fuse.Array {
		arr, err := fuse.New("autoenc", o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(arr.Close)
		return arr
	}
	src := newArray(base)
	if err := src.Train(1); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := src.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	image := ckpt.Bytes()

	for label, mutate := range map[string]func(*fuse.Options){
		"seed":   func(o *fuse.Options) { o.Seed = 12 },
		"chunks": func(o *fuse.Options) { o.Chunks = 2 },
		"width":  func(o *fuse.Options) { o.Width = 4 },
	} {
		o := base
		mutate(&o)
		if err := newArray(o).LoadCheckpoint(bytes.NewReader(image)); err == nil {
			t.Errorf("LoadCheckpoint accepted an image saved under a different %s", label)
		}
	}

	const headerLen = 4 + 4 + 8 + 4 + 4 + 8 // magic, version, step, chunks, chunk batch, seed
	dst := newArray(base)
	for n := 0; n < headerLen; n++ {
		if err := dst.LoadCheckpoint(bytes.NewReader(image[:n])); err == nil {
			t.Errorf("LoadCheckpoint accepted a header truncated to %d bytes", n)
		}
		if got := dst.Steps(); got != 0 {
			t.Fatalf("truncated header (%d bytes) moved the step counter to %d", n, got)
		}
	}
	// The header alone (no variable image behind it) is also short.
	if err := dst.LoadCheckpoint(bytes.NewReader(image[:headerLen])); err == nil {
		t.Error("LoadCheckpoint accepted a header with no variable image")
	}
	if err := dst.LoadCheckpoint(bytes.NewReader(image)); err != nil {
		t.Fatalf("the untruncated image must still load: %v", err)
	}
	if got := dst.Steps(); got != 1 {
		t.Fatalf("resumed step counter %d, want 1", got)
	}
}
