package core

import "testing"

// FuzzLowestFit cross-checks every placement rung — the v1 sort+scan
// (LowestFit), the v2 sort-free streaming scan (LowestFitStream), the
// color map (fitColors), the kernel's dispatch over them
// (FitScratch.Fit), and, on uniform-shaped occupancies, the kernel's
// packed free-map rung (FitScratch.placeSlots) — against the
// color-by-color reference on fuzzer-chosen occupations. Starts and
// widths fold to 0–300, so intervals end on either side of the color
// map's word boundaries and of its 256-color reach; w runs 0–127 and,
// doubled, 256–510.
func FuzzLowestFit(f *testing.F) {
	f.Add(int64(0), int64(3), int64(5), int64(2), int64(4), int64(2), uint8(2))
	f.Add(int64(1), int64(1), int64(1), int64(1), int64(1), int64(1), uint8(0))
	f.Add(int64(0), int64(64), int64(64), int64(64), int64(192), int64(64), uint8(64))
	f.Add(int64(0), int64(250), int64(250), int64(7), int64(256), int64(0), uint8(130))
	f.Fuzz(func(t *testing.T, s1, w1, s2, w2, s3, w3 int64, wRaw uint8) {
		norm := func(v int64) int64 {
			if v < 0 {
				v = -v
			}
			return v % 301
		}
		occ := []Interval{
			NewInterval(norm(s1), norm(w1)),
			NewInterval(norm(s2), norm(w2)),
			NewInterval(norm(s3), norm(w3)),
		}
		w := int64(wRaw) << (wRaw >> 7)
		want := bruteLowestFit(occ, w)
		if got := LowestFitStream(occ, w); got != want {
			t.Fatalf("LowestFitStream(%v, %d) = %d, reference %d", occ, w, got, want)
		}
		if got, ok := fitColors(occ, w); ok != (w <= 0 || inColorMap(occ)) || ok && got != want {
			t.Fatalf("fitColors(%v, %d) = (%d, %v), reference %d", occ, w, got, ok, want)
		}
		if got := kernelFit(occ, w); got != want {
			t.Fatalf("FitScratch.Fit(%v, %d) = %d, reference %d", occ, w, got, want)
		}
		got := LowestFit(append([]Interval{}, occ...), w)
		if got != want {
			t.Fatalf("LowestFit(%v, %d) = %d, reference %d", occ, w, got, want)
		}
		// The result must actually be feasible and minimal.
		cand := NewInterval(got, w)
		for _, iv := range occ {
			if cand.Overlaps(iv) {
				t.Fatalf("returned placement overlaps %v", iv)
			}
		}
		// Reshape the same inputs into a uniform-weight occupancy (all
		// widths w, starts multiples of w) and cross-check the free-map
		// rung; it must accept the instance, never fall back.
		if w > 0 {
			uocc := make([]Interval, 0, len(occ))
			for _, iv := range occ {
				slot := iv.Start % 6
				uocc = append(uocc, Interval{Start: slot * w, End: slot*w + w})
			}
			ugot, ok := placeSlots(uocc, w)
			if !ok {
				t.Fatalf("uniform rung on (%v, %d) refused a uniform instance", uocc, w)
			}
			if uwant := bruteLowestFit(uocc, w); ugot != uwant {
				t.Fatalf("uniform rung on (%v, %d) = %d, reference %d", uocc, w, ugot, uwant)
			}
		}
	})
}
