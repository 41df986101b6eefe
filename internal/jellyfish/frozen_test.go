package jellyfish

import (
	"math/rand"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// TestFreezeDifferential pins the frozen flat table against the live
// count table it snapshots: every counted k-mer and a spray of
// absent ones must Get identical counts, stranded and canonical, on
// randomized reads that include ambiguous bases and empty sequences.
func TestFreezeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		k := 3 + rng.Intn(12)
		var reads []seq.Record
		for r := 0; r < 30; r++ {
			n := rng.Intn(120) // includes empty and shorter-than-k reads
			s := make([]byte, n)
			for i := range s {
				s[i] = "ACGTN"[rng.Intn(5)] // ~20% ambiguous bases
			}
			reads = append(reads, seq.Record{ID: "r", Seq: s})
		}
		table, err := Count(reads, Options{K: k, Canonical: trial%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		f := table.Freeze()
		if f.K != k {
			t.Fatalf("trial %d: frozen K = %d, want %d", trial, f.K, k)
		}
		if f.Distinct() != table.Distinct() {
			t.Fatalf("trial %d: Distinct %d vs %d", trial, f.Distinct(), table.Distinct())
		}
		if f.Total() != table.Total() {
			t.Fatalf("trial %d: Total %d vs %d", trial, f.Total(), table.Total())
		}
		for _, e := range table.Entries(1) {
			if got := f.Get(e.Kmer); got != e.Count {
				t.Fatalf("trial %d: Get(%v) = %d, want %d", trial, e.Kmer, got, e.Count)
			}
		}
		for i := 0; i < 500; i++ {
			m := kmer.Kmer(rng.Uint64() & ((1 << uint(2*k)) - 1))
			if got, want := f.Get(m), table.Get(m); got != want {
				t.Fatalf("trial %d: Get(%v) = %d, want %d", trial, m, got, want)
			}
		}
	}
}

func TestFreezeEmptyTable(t *testing.T) {
	f := NewCountTable(21).Freeze()
	if f.Distinct() != 0 || f.Total() != 0 {
		t.Fatalf("empty freeze: distinct=%d total=%d", f.Distinct(), f.Total())
	}
	if got := f.Get(12345); got != 0 {
		t.Fatalf("empty freeze Get = %d", got)
	}
}

// BenchmarkCountTableGet compares the loop-1 probe cost of the
// partitioned count table against its frozen flat snapshot, with all
// cores probing concurrently — the access pattern of weldSupport under
// the hybrid rank goroutines. The working set is sized cache-resident
// so the benchmark isolates per-probe structural overhead (partition
// select + split key/count arrays vs one interleaved-slot load) rather
// than DRAM latency, mirroring weldSupport's hot-window locality:
// consecutive weld candidates re-probe overlapping window k-mers.
// `make bench-kernels` snapshots it into BENCH_kernels.json.
func BenchmarkCountTableGet(b *testing.B) {
	const k = 21
	rng := rand.New(rand.NewSource(3))
	table := NewCountTable(k)
	probes := make([]kmer.Kmer, 1<<12)
	for i := range probes {
		m := kmer.Kmer(rng.Uint64() & ((1 << (2 * k)) - 1))
		probes[i] = m
		if i%2 == 0 { // half the probes hit, half miss
			table.Add(m, uint32(1+rng.Intn(100)))
		}
	}
	frozen := table.Freeze()
	b.Run("table", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var sink uint32
			i := 0
			for pb.Next() {
				sink += table.Get(probes[i&(len(probes)-1)])
				i++
			}
			_ = sink
		})
	})
	b.Run("frozen", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var sink uint32
			i := 0
			for pb.Next() {
				sink += frozen.Get(probes[i&(len(probes)-1)])
				i++
			}
			_ = sink
		})
	})
}
