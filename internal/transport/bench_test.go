package transport

import (
	"testing"

	"repro/internal/sim"
)

func benchTransfer(b *testing.B, loss float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, _ := chain(4)
		if loss > 0 {
			InstallLossyLink(net, 2, loss, sim.NewRNG(uint64(i)))
		}
		stats, _ := transfer(net, 1, 4, payload(16000))
		if !stats.Done {
			b.Fatal("transfer failed")
		}
	}
}

func BenchmarkTransferClean(b *testing.B) { benchTransfer(b, 0) }
func BenchmarkTransferLossy(b *testing.B) { benchTransfer(b, 0.2) }
