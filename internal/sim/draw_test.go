package sim

import (
	"math/rand"
	"testing"
)

// FuzzBoundedDraw: for any seed and any n >= 1, boundedDraw yields exactly
// the sequence (*rand.Rand).Int63n(n) yields from an identically seeded
// source — the same values from the same number of source draws, rejected
// draws included.
func FuzzBoundedDraw(f *testing.F) {
	for k := 0; k < 63; k++ {
		f.Add(int64(k), uint64(1)<<k)
	}
	f.Add(int64(1), uint64(3))
	f.Add(int64(2), uint64(1<<31+11))
	f.Add(int64(3), uint64(1<<62+1))
	f.Fuzz(func(t *testing.T, seed int64, un uint64) {
		n := max(1, int64(un&(1<<63-1)))
		want := rand.New(rand.NewSource(seed))
		got := rand.New(rand.NewSource(seed))
		d := newBoundedDraw(n)
		for i := 0; i < 64; i++ {
			if w, g := want.Int63n(n), d.draw(got); w != g {
				t.Fatalf("seed %d n %d draw %d: Int63n %d, boundedDraw %d", seed, n, i, w, g)
			}
		}
		if want.Int63() != got.Int63() {
			t.Fatalf("seed %d n %d: sources diverged after 64 draws", seed, n)
		}
	})
}
