package main

import "testing"

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(range(1, 11), n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
