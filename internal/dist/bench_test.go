package dist

import (
	"encoding/json"
	"testing"

	"ptguard/internal/harness"
	"ptguard/internal/sim"
	"ptguard/internal/workload"
)

// BenchmarkFrameRoundTrip times one result message through the wire
// format: EncodeFrame on the worker, DecodeFrame on the coordinator. The
// payload is a small Fig. 6 slowdown job's result.
func BenchmarkFrameRoundTrip(b *testing.B) {
	prof, err := workload.ProfileByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	cmp, err := sim.Compare(prof, 1_000, 2_000, 1, 10, []sim.Mode{sim.PTGuard, sim.PTGuardOptimized})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := json.Marshal(harness.SlowdownResult{MACLatency: 10, Comparison: cmp})
	if err != nil {
		b.Fatal(err)
	}
	msg := Message{Type: MsgResult, Key: "slowdown/mcf/10", Result: raw, ElapsedMS: 12.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line, err := EncodeFrame(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeFrame(line); err != nil {
			b.Fatal(err)
		}
	}
}
