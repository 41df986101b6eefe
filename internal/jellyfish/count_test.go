package jellyfish

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

// oracleCount is the serial map tally the flat table must reproduce.
func oracleCount(recs []seq.Record, k int, canonical bool) map[kmer.Kmer]uint32 {
	ref := map[kmer.Kmer]uint32{}
	for _, r := range recs {
		it := kmer.NewIterator(r.Seq, k)
		for {
			m, _, ok := it.Next()
			if !ok {
				break
			}
			if canonical {
				m, _ = m.Canonical(k)
			}
			ref[m]++
		}
	}
	return ref
}

// randomReads draws n reads of 0..maxLen bases with occasional N runs,
// from a short random source so that k-mers repeat.
func randomReads(rng *rand.Rand, n, maxLen int) []seq.Record {
	src := make([]byte, 300)
	for i := range src {
		src[i] = "ACGT"[rng.Intn(4)]
	}
	recs := make([]seq.Record, n)
	for i := range recs {
		l := rng.Intn(maxLen + 1)
		start := rng.Intn(len(src) - maxLen)
		s := append([]byte(nil), src[start:start+l]...)
		if l > 0 && rng.Intn(3) == 0 {
			at := rng.Intn(l)
			for j := at; j < l && j < at+1+rng.Intn(6); j++ {
				s[j] = 'N'
			}
		}
		recs[i] = seq.Record{ID: "r", Seq: s}
	}
	return recs
}

// TestCountDifferential pins Count and CountPacked against the serial
// map oracle across k (including k-mers shorter than the partition
// index), strandedness, thread counts, and batch sizes that leave
// workers idle in the final batch — an idle worker whose buffers kept
// the previous batch would count those k-mers twice.
func TestCountDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, k := range []int{1, 4, 25, 31} {
		// 37 reads is no multiple of any thread count below, so the
		// last small batch always leaves a worker without reads.
		recs := randomReads(rng, 37, 120)
		packed := seq.PackRecords(recs)
		for _, canonical := range []bool{false, true} {
			ref := oracleCount(recs, k, canonical)
			want := make([]Entry, 0, len(ref))
			var total uint64
			for m, c := range ref {
				want = append(want, Entry{m, c})
				total += uint64(c)
			}
			slices.SortFunc(want, func(a, b Entry) int { return cmp.Compare(a.Kmer, b.Kmer) })
			for _, threads := range []int{1, 2, 3, 8} {
				for _, batch := range []int{1, 64, batchKmers} {
					opt := Options{K: k, Canonical: canonical, Threads: threads}
					ascii, err := countRecords(recs, opt, batch)
					if err != nil {
						t.Fatal(err)
					}
					pk, err := countPackedRecords(packed, opt, batch)
					if err != nil {
						t.Fatal(err)
					}
					for name, table := range map[string]*CountTable{"Count": ascii, "CountPacked": pk} {
						checkTable(t, table, ref, want, total)
						if t.Failed() {
							t.Fatalf("%s k=%d canonical=%v threads=%d batch=%d", name, k, canonical, threads, batch)
						}
					}
				}
			}
			checkTable(t, FromEntries(k, want), ref, want, total)
			if t.Failed() {
				t.Fatalf("FromEntries k=%d canonical=%v", k, canonical)
			}
		}
	}
}

func checkTable(t *testing.T, table *CountTable, ref map[kmer.Kmer]uint32, want []Entry, total uint64) {
	t.Helper()
	if got := table.Entries(1); !slices.Equal(got, want) {
		t.Errorf("Entries(1): %d entries, want %d (or order differs)", len(got), len(want))
		return
	}
	var freq []Entry
	for _, e := range want {
		if e.Count >= 2 {
			freq = append(freq, e)
		}
	}
	if got := table.Entries(2); !slices.Equal(got, freq) {
		t.Errorf("Entries(2): %d entries, want %d", len(got), len(freq))
	}
	if table.Distinct() != len(ref) || table.Total() != total {
		t.Errorf("Distinct/Total = %d/%d, want %d/%d", table.Distinct(), table.Total(), len(ref), total)
	}
	frozen := table.Freeze()
	mask := kmer.Kmer(1)<<(2*table.K) - 1
	for m, c := range ref {
		absent := (m + 0x9e3779b97f4a7c15) & mask
		if table.Get(m) != c || frozen.Get(m) != c || table.Get(absent) != ref[absent] || frozen.Get(absent) != ref[absent] {
			t.Errorf("Get(%v) = %d/%d, want %d", m, table.Get(m), frozen.Get(m), c)
			return
		}
	}
}

// BenchmarkCountPacked counts the packed reads of the drosophila
// preset at k=25, the in-memory counting step of a default run.
func BenchmarkCountPacked(b *testing.B) {
	reads := seq.PackRecords(rnaseq.Generate(rnaseq.Drosophila(1)).Reads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := CountPacked(reads, Options{K: 25})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = table
	}
}

var benchSink *CountTable
