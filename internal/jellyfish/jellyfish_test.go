package jellyfish

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

func recsOf(ss ...string) []seq.Record {
	recs := make([]seq.Record, len(ss))
	for i, s := range ss {
		recs[i] = seq.Record{ID: "r", Seq: []byte(s)}
	}
	return recs
}

func TestCountSimple(t *testing.T) {
	table, err := Count(recsOf("ACGT", "ACGT"), Options{K: 3, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	acg, _ := kmer.Encode([]byte("ACG"), 3)
	cgt, _ := kmer.Encode([]byte("CGT"), 3)
	if table.Get(acg) != 2 || table.Get(cgt) != 2 {
		t.Errorf("counts: ACG=%d CGT=%d, want 2/2", table.Get(acg), table.Get(cgt))
	}
	if table.Distinct() != 2 {
		t.Errorf("distinct = %d, want 2", table.Distinct())
	}
	if table.Total() != 4 {
		t.Errorf("total = %d, want 4", table.Total())
	}
}

func TestCountCanonicalMergesStrands(t *testing.T) {
	// CGT's reverse complement is ACG: canonical counting merges them.
	table, err := Count(recsOf("ACG", "CGT"), Options{K: 3, Canonical: true})
	if err != nil {
		t.Fatal(err)
	}
	if table.Distinct() != 1 {
		t.Fatalf("canonical distinct = %d, want 1", table.Distinct())
	}
	acg, _ := kmer.Encode([]byte("ACG"), 3)
	can, _ := acg.Canonical(3)
	if table.Get(can) != 2 {
		t.Errorf("canonical count = %d, want 2", table.Get(can))
	}
}

func TestCountRejectsBadK(t *testing.T) {
	if _, err := Count(nil, Options{K: 0}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := Count(nil, Options{K: 32}); err == nil {
		t.Error("accepted k=32")
	}
}

// Concurrent counting must agree with a serial reference tally.
func TestCountMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 7
	recs := make([]seq.Record, 300)
	ref := map[kmer.Kmer]uint32{}
	for i := range recs {
		n := 20 + rng.Intn(80)
		s := make([]byte, n)
		for j := range s {
			s[j] = "ACGTN"[rng.Intn(5)] // include ambiguity
		}
		recs[i] = seq.Record{Seq: s}
		it := kmer.NewIterator(s, k)
		for {
			m, _, ok := it.Next()
			if !ok {
				break
			}
			ref[m]++
		}
	}
	table, err := Count(recs, Options{K: k, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if table.Distinct() != len(ref) {
		t.Fatalf("distinct %d vs ref %d", table.Distinct(), len(ref))
	}
	for m, c := range ref {
		if got := table.Get(m); got != c {
			t.Fatalf("count(%s) = %d, want %d", m.Decode(k), got, c)
		}
	}
}

func TestEntriesFilterAndOrder(t *testing.T) {
	table, _ := Count(recsOf("AAAA", "AAAT", "AAAT"), Options{K: 4})
	all := table.Entries(1)
	if len(all) != 2 {
		t.Fatalf("entries = %d, want 2", len(all))
	}
	if !(all[0].Kmer < all[1].Kmer) {
		t.Error("entries not sorted by k-mer")
	}
	freq := table.Entries(2)
	if len(freq) != 1 || freq[0].Kmer.Decode(4) != "AAAT" {
		t.Errorf("minCount filter wrong: %+v", freq)
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	table, _ := Count(recsOf("ACGTACGT", "TTTTTTT"), Options{K: 5})
	var buf bytes.Buffer
	if err := Dump(&buf, table, 1); err != nil {
		t.Fatal(err)
	}
	entries, err := Load(&buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != table.Distinct() {
		t.Fatalf("loaded %d entries, want %d", len(entries), table.Distinct())
	}
	// Dump orders by decreasing count.
	for i := 1; i < len(entries); i++ {
		if entries[i].Count > entries[i-1].Count {
			t.Fatal("dump not sorted by decreasing count")
		}
	}
	for _, e := range entries {
		if table.Get(e.Kmer) != e.Count {
			t.Fatalf("entry %v mismatch", e)
		}
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	cases := []string{
		"5\n",        // missing k-mer
		"x\tACGTA\n", // bad count
		"3\tACG\n",   // wrong k
		"3\tACGNB\n", // invalid base
	}
	for _, in := range cases {
		if _, err := Load(strings.NewReader(in), 5); err == nil {
			t.Errorf("Load accepted %q", in)
		}
	}
}

func TestLoadSkipsBlankLines(t *testing.T) {
	entries, err := Load(strings.NewReader("2\tACGTA\n\n1\tTTTTT\n"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("entries = %d, want 2", len(entries))
	}
}

func BenchmarkCount(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	recs := make([]seq.Record, 1000)
	for i := range recs {
		s := make([]byte, 100)
		for j := range s {
			s[j] = "ACGT"[rng.Intn(4)]
		}
		recs[i] = seq.Record{Seq: s}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(recs, Options{K: 25}); err != nil {
			b.Fatal(err)
		}
	}
}
