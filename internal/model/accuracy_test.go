package model

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortTopK is the sort-based ranking accuracy used to run: sort the class
// indices by descending score and look for the label among the first k.
// For ≤ 12 classes sort.Slice runs a stable insertion sort, so ties keep
// index order; above that its order among ties is unspecified.
func sortTopK(scores []float64, label, k int) (top1, topK bool) {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	for i := 0; i < k; i++ {
		if order[i] == label {
			topK = true
		}
	}
	return order[0] == label, topK
}

// TestLabelRankMatchesSort: the rank count reproduces the sort-based top-1
// and top-k verdicts — with ties at ≤ 12 classes (integer scores from a
// tiny range force them, signed zeros included) and without ties above 12 —
// for k ∈ {1, 3, C}.
func TestLabelRankMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type row struct {
		classes int
		ties    bool
	}
	var rows []row
	for c := 1; c <= 12; c++ {
		rows = append(rows, row{c, true}, row{c, false})
	}
	rows = append(rows, row{13, false}, row{20, false}, row{100, false})
	for _, r := range rows {
		for trial := 0; trial < 200; trial++ {
			scores := make([]float64, r.classes)
			for i := range scores {
				if r.ties {
					scores[i] = float64(rng.Intn(3) - 1)
					if scores[i] == 0 && rng.Intn(2) == 0 {
						scores[i] = math.Copysign(0, -1)
					}
				} else {
					scores[i] = rng.NormFloat64()
				}
			}
			label := rng.Intn(r.classes)
			for _, k := range []int{1, 3, r.classes} {
				if k > r.classes {
					continue
				}
				want1, wantK := sortTopK(scores, label, k)
				rank := labelRank(scores, label)
				if got1, gotK := rank == 0, rank < k; got1 != want1 || gotK != wantK {
					t.Fatalf("classes %d ties %v scores %v label %d k %d: rank %d gives (%v, %v), sort gives (%v, %v)",
						r.classes, r.ties, scores, label, k, rank, got1, gotK, want1, wantK)
				}
			}
		}
	}
}

// TestLabelRankNaN pins the NaN behaviour: a NaN label score is never a
// hit, even at k = C; NaN scores on other classes never outrank the label.
func TestLabelRankNaN(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		scores []float64
		label  int
		want   int
	}{
		{[]float64{nan, 1, 2}, 0, 3},
		{[]float64{nan, nan}, 1, 2},
		{[]float64{nan, 1, 2}, 2, 0},
		{[]float64{nan, 1, 2}, 1, 1},
		{[]float64{2, nan, 2}, 2, 1},
	} {
		if got := labelRank(c.scores, c.label); got != c.want {
			t.Errorf("labelRank(%v, %d) = %d, want %d", c.scores, c.label, got, c.want)
		}
	}
}
