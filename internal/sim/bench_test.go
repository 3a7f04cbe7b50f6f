package sim

import "testing"

// BenchmarkCompare times one job of the Fig. 7 sweep in the benchmark of
// record's fig7-proc shape (10k warm-up and 40k measured instructions at
// a 10-cycle MAC) on mcf, with PT-Guard alone and with both protected
// modes, so the cost of a second mode shows apart from the first.
func BenchmarkCompare(b *testing.B) {
	prof := testProfile(b, "mcf")
	for _, c := range []struct {
		name  string
		modes []Mode
	}{
		{"ptguard", []Mode{PTGuard}},
		{"both", []Mode{PTGuard, PTGuardOptimized}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compare(prof, 10_000, 40_000, 1, 10, c.modes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
