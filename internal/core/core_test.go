package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// toy is a minimal Model for exercising the runner without importing
// the real workloads (which would create an import cycle in tests).
type toy struct {
	g     *graph.Graph
	x     *graph.Node
	y     *graph.Node
	loss  *graph.Node
	train *graph.Node
	steps int
}

func (t *toy) Name() string { return "toy" }
func (t *toy) Meta() Meta {
	return Meta{Name: "toy", Year: 2016, Style: "Full", Layers: 1, Task: "Supervised", Dataset: "none"}
}
func (t *toy) Graph() *graph.Graph { return t.g }
func (t *toy) Config() Config      { return Config{} }
func (t *toy) Setup(cfg Config) error {
	g := graph.New()
	t.g = g
	t.x = g.Placeholder("x", 4, 8)
	w := g.Variable("w", tensor.Ones(8, 2))
	t.y = ops.MatMul(t.x, w)
	t.loss = ops.Sum(ops.Square(t.y))
	grads, err := graph.Gradients(t.loss, []*graph.Node{w})
	if err != nil {
		return err
	}
	t.train = ops.ApplySGD(w, grads[0], 1e-4)
	return nil
}
func (t *toy) Signature(mode Mode) Signature {
	if mode == ModeTraining {
		return Signature{
			Inputs:  []IOSpec{In("x", t.x)},
			Outputs: []IOSpec{ScalarOut("loss", t.loss)},
		}
	}
	return Signature{
		Inputs:  []IOSpec{In("x", t.x)},
		Outputs: []IOSpec{Out("y", t.y)},
	}
}
func (t *toy) Infer(s *runtime.Session, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	t.steps++
	s.SetTraining(false)
	return t.Signature(ModeInference).Run(s, feeds)
}
func (t *toy) TrainStep(s *runtime.Session) (float64, error) {
	t.steps++
	s.SetTraining(true)
	out, err := s.Run([]*graph.Node{t.loss, t.train}, runtime.Feeds{t.x: tensor.Ones(4, 8)})
	if err != nil {
		return 0, err
	}
	return float64(out[0].Data()[0]), nil
}
func (t *toy) Sample() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{"x": tensor.Ones(4, 8)}
}

func TestModeAndPresetStrings(t *testing.T) {
	if ModeTraining.String() != "training" || ModeInference.String() != "inference" {
		t.Fatal("mode strings")
	}
	if PresetRef.String() != "ref" || PresetSmall.String() != "small" || PresetTiny.String() != "tiny" {
		t.Fatal("preset strings")
	}
}

func TestParsePreset(t *testing.T) {
	for s, want := range map[string]Preset{"ref": PresetRef, "": PresetRef, "small": PresetSmall, "tiny": PresetTiny} {
		got, err := ParsePreset(s)
		if err != nil || got != want {
			t.Fatalf("ParsePreset(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePreset("gigantic"); err == nil {
		t.Fatal("bad preset should error")
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"training": ModeTraining, "train": ModeTraining, "inference": ModeInference, "infer": ModeInference} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("dreaming"); err == nil {
		t.Fatal("bad mode should error")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	Register("core-test-dup", func() Model { return &toy{} })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
		delete(registry, "core-test-dup")
	}()
	Register("core-test-dup", func() Model { return &toy{} })
}

func TestNewDevice(t *testing.T) {
	if d, err := NewDevice("cpu"); err != nil || d.Name() != "cpu" {
		t.Fatal("cpu device")
	}
	if d, err := NewDevice(""); err != nil || d.Name() != "cpu" {
		t.Fatal("default device")
	}
	if d, err := NewDevice("gpu"); err != nil || d.Name() != "gpu" {
		t.Fatal("gpu device")
	}
	if _, err := NewDevice("tpu"); err == nil {
		t.Fatal("unknown device should error")
	}
}

func TestRunWarmupExcludedFromTrace(t *testing.T) {
	m := &toy{}
	if err := m.Setup(Config{}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, RunOptions{Mode: ModeTraining, Steps: 3, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.steps != 5 {
		t.Fatalf("expected 5 total steps, got %d", m.steps)
	}
	if res.Profile.Steps != 3 {
		t.Fatalf("profile steps = %d", res.Profile.Steps)
	}
	// Events carry only the measured steps (warmup trace was reset):
	// 3 steps × 4 ops (MatMul, Square, Sum grad path... at minimum > 0
	// and divisible by 3).
	if len(res.Events) == 0 || len(res.Events)%3 != 0 {
		t.Fatalf("events should cover exactly the 3 measured steps, got %d", len(res.Events))
	}
	if res.SimTime <= 0 || res.WallTime <= 0 {
		t.Fatal("run must report positive times")
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	m := &toy{}
	if err := m.Setup(Config{}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, RunOptions{Mode: ModeInference}) // Steps default 1
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Steps != 1 {
		t.Fatalf("default steps = %d", res.Profile.Steps)
	}
	if res.Mode != ModeInference || res.Model != "toy" {
		t.Fatal("result metadata")
	}
}

func TestRunRejectsBadDevice(t *testing.T) {
	m := &toy{}
	if err := m.Setup(Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, RunOptions{Device: "quantum"}); err == nil {
		t.Fatal("bad device should error")
	}
}

func TestRunOnGPUDevice(t *testing.T) {
	m := &toy{}
	if err := m.Setup(Config{}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, RunOptions{Mode: ModeTraining, Steps: 2, Device: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime <= 0 {
		t.Fatal("GPU run must produce modeled time")
	}
}

func TestSetupAndRunUnknownModel(t *testing.T) {
	if _, err := SetupAndRun("nonexistent", Config{}, RunOptions{}); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestSignatureShapesAndCapacity(t *testing.T) {
	m := &toy{}
	if err := m.Setup(Config{}); err != nil {
		t.Fatal(err)
	}
	sig := m.Signature(ModeInference)
	in, ok := sig.Input("x")
	if !ok {
		t.Fatal("missing input x")
	}
	if got := in.ExampleShape(); len(got) != 1 || got[0] != 8 {
		t.Fatalf("example shape = %v, want [8]", got)
	}
	if sig.BatchCapacity() != 4 {
		t.Fatalf("capacity = %d, want 4", sig.BatchCapacity())
	}
	out, ok := sig.Output("y")
	if !ok || out.BatchDim != 0 {
		t.Fatal("missing batched output y")
	}
	loss, ok := m.Signature(ModeTraining).Output("loss")
	if !ok || loss.BatchDim != BatchNone {
		t.Fatal("training loss must be a whole-batch scalar")
	}
}

func TestSignatureRunValidatesFeeds(t *testing.T) {
	m := &toy{}
	if err := m.Setup(Config{}); err != nil {
		t.Fatal(err)
	}
	s := runtime.NewSession(m.Graph())
	sig := m.Signature(ModeInference)
	if _, err := sig.Run(s, map[string]*tensor.Tensor{}); err == nil {
		t.Fatal("missing input must error")
	}
	if _, err := sig.Run(s, map[string]*tensor.Tensor{
		"x": tensor.Ones(4, 8), "bogus": tensor.Ones(1),
	}); err == nil {
		t.Fatal("unknown input must error")
	}
	out, err := sig.Run(s, map[string]*tensor.Tensor{"x": tensor.Ones(4, 8)})
	if err != nil {
		t.Fatal(err)
	}
	y, ok := out["y"]
	if !ok || y.Dim(0) != 4 || y.Dim(1) != 2 {
		t.Fatalf("output y = %v", out)
	}
}

func TestStepAdapterDrivesCapabilities(t *testing.T) {
	m := &toy{}
	if err := m.Setup(Config{}); err != nil {
		t.Fatal(err)
	}
	s := runtime.NewSession(m.Graph())
	if err := Step(m, s, ModeTraining); err != nil {
		t.Fatal(err)
	}
	if err := Step(m, s, ModeInference); err != nil {
		t.Fatal(err)
	}
	if m.steps != 2 {
		t.Fatalf("adapter should have driven 2 steps, got %d", m.steps)
	}
}

var _ = fmt.Sprint // keep fmt for debugging variants
