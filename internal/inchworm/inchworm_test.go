package inchworm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

func dictFromReads(t *testing.T, reads []seq.Record, k int) []jellyfish.Entry {
	t.Helper()
	table, err := jellyfish.Count(reads, jellyfish.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return table.Entries(1)
}

// A single unique sequence covered by overlapping reads must assemble
// back into (at least) that sequence.
func TestReassemblesSingleTranscript(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	transcript := make([]byte, 400)
	for i := range transcript {
		transcript[i] = "ACGT"[rng.Intn(4)]
	}
	var reads []seq.Record
	for start := 0; start+60 <= len(transcript); start += 5 {
		for c := 0; c < 3; c++ { // 3x coverage of every window
			reads = append(reads, seq.Record{Seq: transcript[start : start+60]})
		}
	}
	const k = 25
	contigs, stats, err := Run(dictFromReads(t, reads, k), Options{K: k, MinKmerCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) == 0 {
		t.Fatal("no contigs assembled")
	}
	if stats.Contigs != len(contigs) {
		t.Errorf("stats.Contigs = %d, want %d", stats.Contigs, len(contigs))
	}
	joined := ""
	for _, c := range contigs {
		joined += string(c.Seq) + "|"
	}
	// The longest contig should reconstruct essentially the whole transcript.
	longest := ""
	for _, c := range contigs {
		if len(c.Seq) > len(longest) {
			longest = string(c.Seq)
		}
	}
	if !strings.Contains(string(transcript), longest) {
		t.Errorf("longest contig is not a substring of the source transcript (len=%d)", len(longest))
	}
	if len(longest) < len(transcript)*9/10 {
		t.Errorf("longest contig %d bases, want >= 90%% of %d; contigs: %s", len(longest), len(transcript), joined[:min(200, len(joined))])
	}
}

func TestErrorKmersPruned(t *testing.T) {
	// One read with a sequencing error produces singleton k-mers that
	// MinKmerCount=2 must remove, leaving the error branch unassembled.
	rng := rand.New(rand.NewSource(5))
	transcript := make([]byte, 200)
	for i := range transcript {
		transcript[i] = "ACGT"[rng.Intn(4)]
	}
	var reads []seq.Record
	for start := 0; start+50 <= len(transcript); start += 4 {
		reads = append(reads, seq.Record{Seq: transcript[start : start+50]})
		reads = append(reads, seq.Record{Seq: transcript[start : start+50]})
	}
	bad := append([]byte(nil), transcript[40:90]...)
	bad[25] = seq.Complement(bad[25]) // guaranteed substitution
	reads = append(reads, seq.Record{Seq: bad})

	const k = 21
	a, err := New(dictFromReads(t, reads, k), Options{K: k, MinKmerCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	contigs := a.Assemble()
	for _, c := range contigs {
		if strings.Contains(string(c.Seq), string(bad[20:30])) &&
			!strings.Contains(string(transcript), string(c.Seq)) {
			t.Errorf("error branch leaked into contig %s", c.ID)
		}
	}
	st := a.Stats()
	if st.KmersKept >= st.KmersIn {
		t.Errorf("no k-mers pruned: in=%d kept=%d", st.KmersIn, st.KmersKept)
	}
}

// Fig. 1 of the paper: extension picks the *highest occurring* k-mer
// with a (k-1) overlap.
func TestExtensionPrefersMostAbundant(t *testing.T) {
	// Seed GGCA; right extensions GCAT (x5) and GCAA (x2) both overlap.
	// Build counts directly.
	entries := []jellyfish.Entry{}
	add := func(s string, c uint32) {
		m, ok := kmer.Encode([]byte(s), len(s))
		if !ok {
			t.Fatalf("bad kmer %s", s)
		}
		entries = append(entries, jellyfish.Entry{Kmer: m, Count: c})
	}
	add("GGCA", 9) // seed: most abundant
	add("GCAT", 5) // preferred right extension
	add("GCAA", 2) // rejected branch
	add("CATT", 4) // continues the preferred path
	contigs, _, err := Run(entries, Options{K: 4, MinKmerCount: 1, MinContigLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) != 1 {
		t.Fatalf("contigs = %d, want 1", len(contigs))
	}
	if got := string(contigs[0].Seq); got != "GGCATT" {
		t.Errorf("contig = %s, want GGCATT", got)
	}
}

func TestEachKmerUsedOnce(t *testing.T) {
	// Two disjoint transcripts: their contigs must not share k-mers.
	d := rnaseq.Generate(rnaseq.Tiny(31))
	const k = 21
	dict := dictFromReads(t, d.Reads, k)
	a, err := New(dict, Options{K: k, MinKmerCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	contigs := a.Assemble()
	seen := map[string]string{}
	for _, c := range contigs {
		s := string(c.Seq)
		for i := 0; i+k <= len(s); i++ {
			w := s[i : i+k]
			if prev, dup := seen[w]; dup && prev != c.ID {
				t.Fatalf("k-mer %s appears in %s and %s", w, prev, c.ID)
			}
			seen[w] = c.ID
		}
	}
}

func TestMinContigLenFilter(t *testing.T) {
	var reads []seq.Record
	for i := 0; i < 3; i++ {
		reads = append(reads, seq.Record{Seq: []byte("ACGTACGTAC")})
	}
	dict := dictFromReads(t, reads, 5)
	contigs, _, err := Run(dict, Options{K: 5, MinKmerCount: 1, MinContigLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) != 0 {
		t.Errorf("short contigs not filtered: %d", len(contigs))
	}
}

func TestRejectsBadK(t *testing.T) {
	if _, _, err := Run(nil, Options{K: 0}); err == nil {
		t.Error("accepted k=0")
	}
}

func TestStatsExtensionOpsCounted(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(1))
	dict := dictFromReads(t, d.Reads, 21)
	_, st, err := Run(dict, Options{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	if st.ExtensionOps == 0 {
		t.Error("extension ops not metered")
	}
	if st.BasesOut == 0 {
		t.Error("no contig bases reported")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Threaded dictionary construction must produce the same assembly as
// serial construction.
func TestThreadedConstructionMatchesSerial(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(77))
	dict := dictFromReads(t, d.Reads, 21)
	serial, _, err := Run(dict, Options{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	threaded, _, err := Run(dict, Options{K: 21, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(threaded) {
		t.Fatalf("serial %d vs threaded %d contigs", len(serial), len(threaded))
	}
	for i := range serial {
		if string(serial[i].Seq) != string(threaded[i].Seq) {
			t.Fatalf("contig %d differs", i)
		}
	}
}

// oracleRun is the map-based Inchworm the flat dictionary replaced:
// counts and used are Go maps probed on every extension step. The
// flat Assembler must reproduce its contigs, ids and Stats exactly.
func oracleRun(entries []jellyfish.Entry, opt Options) ([]seq.Record, Stats) {
	if err := opt.normalize(); err != nil {
		panic(err)
	}
	k := opt.K
	counts := map[kmer.Kmer]uint32{}
	used := map[kmer.Kmer]bool{}
	var seeds []jellyfish.Entry
	st := Stats{KmersIn: len(entries)}
	for _, e := range entries {
		if int(e.Count) >= opt.MinKmerCount {
			counts[e.Kmer] = e.Count
			seeds = append(seeds, e)
		}
	}
	st.KmersKept = len(seeds)
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].Count != seeds[j].Count {
			return seeds[i].Count > seeds[j].Count
		}
		return seeds[i].Kmer < seeds[j].Kmer
	})
	best := func(cur kmer.Kmer, fwd bool) (kmer.Kmer, byte, bool) {
		var bestK kmer.Kmer
		var bestBase byte
		var bestCount uint32
		found := false
		for code := uint64(0); code < 4; code++ {
			cand := cur.PrependBase(code, k)
			if fwd {
				cand = cur.AppendBase(code, k)
			}
			st.ExtensionOps++
			c, ok := counts[cand]
			if !ok || used[cand] {
				continue
			}
			if !found || c > bestCount || (c == bestCount && cand < bestK) {
				bestK, bestBase, bestCount, found = cand, seq.IndexBase(code), c, true
			}
		}
		return bestK, bestBase, found
	}
	var contigs []seq.Record
	for _, s := range seeds {
		if used[s.Kmer] {
			continue
		}
		used[s.Kmer] = true
		var right, left []byte
		for cur := s.Kmer; ; {
			next, base, ok := best(cur, true)
			if !ok {
				break
			}
			right, used[next], cur = append(right, base), true, next
		}
		for cur := s.Kmer; ; {
			next, base, ok := best(cur, false)
			if !ok {
				break
			}
			left, used[next], cur = append(left, base), true, next
		}
		var c []byte
		for i := len(left) - 1; i >= 0; i-- {
			c = append(c, left[i])
		}
		c = append(append(c, s.Kmer.Decode(k)...), right...)
		if len(c) >= opt.MinContigLen {
			contigs = append(contigs, seq.Record{
				ID:   fmt.Sprintf("contig%d", len(contigs)),
				Desc: fmt.Sprintf("len=%d", len(c)),
				Seq:  c,
			})
			st.Contigs++
			st.BasesOut += len(c)
		}
	}
	return contigs, st
}

// TestRunMatchesMapOracle pins the flat dictionary against the map
// oracle on shuffled dictionaries with heavy count ties: dense random
// dictionaries at small k (many branching extensions) and read-derived
// dictionaries at k=21, serial and threaded construction.
func TestRunMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var cases []struct {
		k       int
		entries []jellyfish.Entry
	}
	for _, k := range []int{1, 3, 5, 8} {
		for trial := 0; trial < 4; trial++ {
			space := 1 << (2 * k)
			n := 1 + rng.Intn(min(space, 600))
			seen := map[kmer.Kmer]bool{}
			var entries []jellyfish.Entry
			for len(entries) < n {
				m := kmer.Kmer(rng.Intn(space))
				if !seen[m] {
					seen[m] = true
					entries = append(entries, jellyfish.Entry{Kmer: m, Count: uint32(1 + rng.Intn(4))})
				}
			}
			cases = append(cases, struct {
				k       int
				entries []jellyfish.Entry
			}{k, entries})
		}
	}
	for _, seed := range []int64{3, 4} {
		dict := dictFromReads(t, rnaseq.Generate(rnaseq.Tiny(seed)).Reads, 21)
		rng.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
		cases = append(cases, struct {
			k       int
			entries []jellyfish.Entry
		}{21, dict})
	}
	for i, c := range cases {
		for _, opt := range []Options{
			{K: c.k, MinKmerCount: 1, MinContigLen: c.k},
			{K: c.k, MinKmerCount: 2},
			{K: c.k, MinKmerCount: 2, Threads: 3},
		} {
			want, wantSt := oracleRun(c.entries, opt)
			got, gotSt, err := Run(c.entries, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || gotSt != wantSt {
				t.Fatalf("case %d k=%d %+v: %d contigs %+v, oracle %d contigs %+v",
					i, c.k, opt, len(got), gotSt, len(want), wantSt)
			}
		}
	}
}

func TestRejectsDuplicateKmer(t *testing.T) {
	m, _ := kmer.Encode([]byte("ACGTA"), 5)
	entries := []jellyfish.Entry{{Kmer: m, Count: 3}, {Kmer: m, Count: 2}}
	if _, _, err := Run(entries, Options{K: 5}); err == nil {
		t.Error("accepted a k-mer listed twice")
	}
}

// BenchmarkInchwormRun assembles the k=25 dictionary of the drosophila
// preset, the Inchworm step of a default run.
func BenchmarkInchwormRun(b *testing.B) {
	d := rnaseq.Generate(rnaseq.Drosophila(1))
	table, err := jellyfish.CountPacked(seq.PackRecords(d.Reads), jellyfish.Options{K: 25})
	if err != nil {
		b.Fatal(err)
	}
	entries := table.Entries(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contigs, _, err := Run(entries, Options{K: 25})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = contigs
	}
}

var benchSink []seq.Record
