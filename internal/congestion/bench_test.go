package congestion

import "testing"

func benchBottleneck(b *testing.B, disc Discipline) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var flows []*Flow
		for j := 0; j < 10; j++ {
			flows = append(flows, NewFlow(j < 3))
		}
		bn := NewBottleneck(100, disc, flows...)
		bn.Run(500)
	}
}

func BenchmarkBottleneckFIFO(b *testing.B)      { benchBottleneck(b, SharedFIFO) }
func BenchmarkBottleneckFairQueue(b *testing.B) { benchBottleneck(b, FairQueue) }
