package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Fatalf("mean=%v err=%v", m, err)
	}
}

func TestEmptyInputs(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("mean nil")
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Fatal("percentile nil")
	}
	if _, err := FractionBelow(nil, 1); !errors.Is(err, ErrEmpty) {
		t.Fatal("fraction nil")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {-5, 1}, {150, 10},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Fatalf("p%.0f = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	f, err := FractionBelow(xs, 3)
	if err != nil || f != 0.5 {
		t.Fatalf("f=%v err=%v", f, err)
	}
}

func TestGaussianPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	p50, _ := Percentile(xs, 50)
	if math.Abs(p50) > 0.05 {
		t.Fatalf("median of N(0,1) = %v", p50)
	}
	p975, _ := Percentile(xs, 97.5)
	if math.Abs(p975-1.96) > 0.15 {
		t.Fatalf("97.5th of N(0,1) = %v", p975)
	}
}
