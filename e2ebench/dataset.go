package main

import (
	"fmt"
	"math/rand"
	"sort"

	trinity "gotrinity"
	"gotrinity/internal/seq"
)

// transcriptomeSeed fixes each workload's reference transcriptome and
// expression: the preset's own at the default seed. The run's seed
// draws the reads, so runs differ in which fragments are sequenced and
// where the errors fall, not in how much there is to assemble. A
// preset's transcriptome varies from seed to seed by more than the
// benchmark's bounds (Sugarbeet's few long genes most of all).
const transcriptomeSeed = defaultSeed

// generate builds a workload's dataset: the preset's transcriptome at
// transcriptomeSeed with its read count simulated from seed, in the
// preset's read layout (length, pairing, insert size, error rate).
func generate(profile func(seed int64) trinity.Profile, seed int64) *trinity.Dataset {
	p := profile(transcriptomeSeed)
	reads := p.Reads
	p.Reads = 1 // the transcriptome is drawn before the reads, so it does not depend on their count
	d := trinity.GenerateDataset(p)
	d.Profile.Reads = reads
	simulateReads(rand.New(rand.NewSource(seed)), d)
	return d
}

// simulateReads replaces d's reads with d.Profile.Reads new ones,
// sampled as readsim does: a transcript is picked with weight
// expression × length, then a mate pair (with probability PairedFrac)
// or a single read is cut from it and mutated at ErrorRate.
func simulateReads(rng *rand.Rand, d *trinity.Dataset) {
	p := d.Profile
	cum := make([]float64, len(d.Reference))
	total := 0.0
	for i, tr := range d.Reference {
		if len(tr.Seq) >= p.ReadLen {
			total += d.Expression[tr.Gene] * float64(len(tr.Seq))
		}
		cum[i] = total
	}
	read := func(src []byte) []byte {
		r := append([]byte(nil), src...)
		for i := range r {
			if rng.Float64() < p.ErrorRate {
				r[i] = "ACGT"[rng.Intn(4)]
			}
		}
		return r
	}
	d.Reads = make([]seq.Record, 0, p.Reads)
	d.PairCount = 0
	for id := 0; len(d.Reads) < p.Reads; id++ {
		tr := d.Reference[min(sort.SearchFloat64s(cum, rng.Float64()*total), len(cum)-1)].Seq
		if len(tr) < p.ReadLen {
			continue
		}
		if rng.Float64() < p.PairedFrac && len(d.Reads)+2 <= p.Reads {
			insert := min(max(p.InsertMean+int(rng.NormFloat64()*float64(p.InsertSD)), p.ReadLen), len(tr))
			start := rng.Intn(len(tr) - insert + 1)
			right := start + insert - p.ReadLen
			d.Reads = append(d.Reads,
				seq.Record{ID: fmt.Sprintf("read%d/1", id), Seq: read(tr[start : start+p.ReadLen])},
				seq.Record{ID: fmt.Sprintf("read%d/2", id), Seq: read(seq.ReverseComplement(tr[right : right+p.ReadLen]))})
			d.PairCount++
		} else {
			start := rng.Intn(len(tr) - p.ReadLen + 1)
			d.Reads = append(d.Reads, seq.Record{ID: fmt.Sprintf("read%d", id), Seq: read(tr[start : start+p.ReadLen])})
		}
	}
}
