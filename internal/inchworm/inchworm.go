// Package inchworm implements the second Trinity stage: it reads the
// k-mer dictionary written by Jellyfish, sorts it by decreasing
// abundance, and greedily extends each unused seed k-mer in both
// directions via (k-1)-mer overlaps (Fig. 1 of the paper), reporting
// the resulting linear contigs.
package inchworm

import (
	"cmp"
	"fmt"
	"slices"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/omp"
	"gotrinity/internal/seq"
)

// Options configures an Inchworm run.
type Options struct {
	K            int // k-mer length, must match the dictionary
	MinKmerCount int // error filter: drop k-mers rarer than this (default 2)
	MinContigLen int // shortest contig to report (default 2k-1, one join)
	Threads      int // dictionary construction threads (default 1; §II-A's OpenMP hash build)
}

func (o *Options) normalize() error {
	if o.K <= 0 || o.K > kmer.MaxK {
		return fmt.Errorf("inchworm: k=%d out of range", o.K)
	}
	if o.MinKmerCount <= 0 {
		o.MinKmerCount = 2
	}
	if o.MinContigLen <= 0 {
		o.MinContigLen = 2*o.K - 1
	}
	return nil
}

// Stats reports what an assembly did, for profiling and the pipeline
// figures.
type Stats struct {
	KmersIn      int   // dictionary entries offered
	KmersKept    int   // entries surviving the error filter
	Contigs      int   // contigs reported
	BasesOut     int   // total contig bases
	ExtensionOps int64 // greedy extension probes performed (work units)
}

// Assembler holds the k-mer dictionary (the "hash table object" that
// dominates Inchworm's memory footprint, per §II-A) as one flat table:
// index maps each kept k-mer to a dense id, and ids follow seed order,
// so seeds[id] holds its count and used[id] whether a contig has
// consumed it.
type Assembler struct {
	opt   Options
	index *kmer.FlatSet
	seeds []jellyfish.Entry // kept k-mers by decreasing count, then increasing k-mer
	used  []bool
	stats Stats
}

// New builds an assembler from a Jellyfish dictionary. Entries below
// MinKmerCount are discarded ("removing likely error-containing
// k-mers"), and the rest are sorted in decreasing order of abundance.
// A k-mer listed twice among the kept entries is an error.
func New(entries []jellyfish.Entry, opt Options) (*Assembler, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	a := &Assembler{opt: opt}
	a.stats.KmersIn = len(entries)
	if opt.Threads > 1 {
		// Threaded hash construction, as the original Inchworm builds
		// its "hash table object ... using multiple OpenMP threads":
		// per-thread filtered partitions merged afterwards.
		parts := make([][]jellyfish.Entry, opt.Threads)
		omp.ParallelFor(len(entries), opt.Threads, omp.Schedule{Kind: omp.Static},
			func(i, tid int) {
				if int(entries[i].Count) >= opt.MinKmerCount {
					parts[tid] = append(parts[tid], entries[i])
				}
			})
		for _, part := range parts {
			a.seeds = append(a.seeds, part...)
		}
	} else {
		for _, e := range entries {
			if int(e.Count) >= opt.MinKmerCount {
				a.seeds = append(a.seeds, e)
			}
		}
	}
	a.stats.KmersKept = len(a.seeds)
	slices.SortFunc(a.seeds, func(x, y jellyfish.Entry) int {
		if x.Count != y.Count {
			return cmp.Compare(y.Count, x.Count)
		}
		return cmp.Compare(x.Kmer, y.Kmer)
	})
	a.index = kmer.NewFlatSet(len(a.seeds))
	for i, e := range a.seeds {
		if int(a.index.Add(e.Kmer)) != i {
			return nil, fmt.Errorf("inchworm: k-mer %s listed twice in the dictionary", e.Kmer.Decode(opt.K)) // ascii-ok: error message
		}
	}
	a.used = make([]bool, len(a.seeds))
	return a, nil
}

// Assemble runs the greedy extension over every seed and returns the
// contigs as FASTA-ready records named "contigN".
func (a *Assembler) Assemble() []seq.Record {
	var contigs []seq.Record
	for id, s := range a.seeds {
		if a.used[id] {
			continue
		}
		c := a.extend(int32(id), s.Kmer)
		if len(c) >= a.opt.MinContigLen {
			contigs = append(contigs, seq.Record{
				ID:   fmt.Sprintf("contig%d", len(contigs)),
				Desc: fmt.Sprintf("len=%d", len(c)),
				Seq:  c,
			})
			a.stats.Contigs++
			a.stats.BasesOut += len(c)
		}
	}
	return contigs
}

// Stats returns assembly statistics; valid after Assemble.
func (a *Assembler) Stats() Stats { return a.stats }

// extend grows a contig from the seed k-mer with the given id in both
// directions, marking every consumed k-mer as used so each k-mer seeds
// at most one contig.
func (a *Assembler) extend(seedID int32, seedKmer kmer.Kmer) []byte {
	k := a.opt.K
	a.used[seedID] = true

	// Extend rightwards: repeatedly find the most abundant unused
	// k-mer whose (k-1)-prefix equals the current (k-1)-suffix.
	var right []byte
	cur := seedKmer
	for {
		next, id, base, ok := a.bestExtension(cur, true)
		if !ok {
			break
		}
		right = append(right, base)
		a.used[id] = true
		cur = next
	}

	// Extend leftwards symmetrically.
	var left []byte // collected in reverse order
	cur = seedKmer
	for {
		next, id, base, ok := a.bestExtension(cur, false)
		if !ok {
			break
		}
		left = append(left, base)
		a.used[id] = true
		cur = next
	}

	contig := make([]byte, 0, len(left)+k+len(right))
	for i := len(left) - 1; i >= 0; i-- {
		contig = append(contig, left[i])
	}
	contig = append(contig, seedKmer.Decode(k)...) // ascii-ok: contig record assembly, once per contig
	contig = append(contig, right...)
	return contig
}

// bestExtension probes the four possible single-base extensions of cur
// (to the right if fwd, else to the left) and returns the unused
// candidate with the highest count, and its id.
func (a *Assembler) bestExtension(cur kmer.Kmer, fwd bool) (kmer.Kmer, int32, byte, bool) {
	k := a.opt.K
	var bestK kmer.Kmer
	var bestID int32
	var bestBase byte
	var bestCount uint32
	found := false
	for code := uint64(0); code < 4; code++ {
		var cand kmer.Kmer
		if fwd {
			cand = cur.AppendBase(code, k)
		} else {
			cand = cur.PrependBase(code, k)
		}
		a.stats.ExtensionOps++
		id, ok := a.index.Lookup(cand)
		if !ok || a.used[id] {
			continue
		}
		c := a.seeds[id].Count
		if !found || c > bestCount || (c == bestCount && cand < bestK) {
			bestK, bestID, bestBase, bestCount, found = cand, id, seq.IndexBase(code), c, true
		}
	}
	return bestK, bestID, bestBase, found
}

// Run is the full Inchworm stage: count dictionary in, contigs out.
func Run(entries []jellyfish.Entry, opt Options) ([]seq.Record, Stats, error) {
	a, err := New(entries, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	contigs := a.Assemble()
	return contigs, a.Stats(), nil
}
