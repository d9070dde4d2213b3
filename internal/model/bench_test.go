package model

import (
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// benchBatch is the mini-batch size the gradient benchmarks use; it matches
// the per-worker batch size of the experiment suite.
const benchBatch = 64

func benchGradient(b *testing.B, m Model, batch []int) {
	b.Helper()
	src := rng.New(99)
	params := tensor.New(m.Dim())
	m.Init(src, params)
	grad := tensor.New(m.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Gradient(params, grad, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDataset(b *testing.B, classes, features, perClass int) *data.Dataset {
	b.Helper()
	ds, err := data.Blobs(rng.New(7), classes, features, perClass, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkModelGradientLogistic(b *testing.B) {
	ds := benchDataset(b, 10, 32, 100)
	m, err := NewLogistic(ds)
	if err != nil {
		b.Fatal(err)
	}
	benchGradient(b, m, ds.Batch(rng.New(3), benchBatch))
}

func BenchmarkModelGradientMLP(b *testing.B) {
	ds := benchDataset(b, 10, 32, 100)
	m, err := NewMLP(ds, 64)
	if err != nil {
		b.Fatal(err)
	}
	benchGradient(b, m, ds.Batch(rng.New(3), benchBatch))
}

// BenchmarkModelGradientMLPWide is the MLP at the dense BSP benchmark's
// shape: 128 features, 1024 hidden units, 8 classes, batch 8, so W1 and its
// gradient (1 MiB each) are streamed from beyond L1 every call.
func BenchmarkModelGradientMLPWide(b *testing.B) {
	ds := benchDataset(b, 8, 128, 128)
	m, err := NewMLP(ds, 1024)
	if err != nil {
		b.Fatal(err)
	}
	benchGradient(b, m, ds.Batch(rng.New(3), 8))
}

func BenchmarkModelGradientLinReg(b *testing.B) {
	ds, _, err := data.LinearData(rng.New(7), 64, 512, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewLinearRegression(ds)
	if err != nil {
		b.Fatal(err)
	}
	benchGradient(b, m, ds.Batch(rng.New(3), benchBatch))
}

func BenchmarkModelLossMLP(b *testing.B) {
	ds := benchDataset(b, 10, 32, 100)
	m, err := NewMLP(ds, 64)
	if err != nil {
		b.Fatal(err)
	}
	batch := ds.Batch(rng.New(3), benchBatch)
	src := rng.New(99)
	params := tensor.New(m.Dim())
	m.Init(src, params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Loss(params, batch); err != nil {
			b.Fatal(err)
		}
	}
}
