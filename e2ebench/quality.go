package main

import (
	"math"
	"sort"

	trinity "gotrinity"
	"gotrinity/internal/kmer"
	"gotrinity/internal/omp"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/validate"
)

// Fig. 5's full-length thresholds: reference cover and identity.
const minCover, minIdentity = 0.9, 0.95

// minMatchFrac bounds how short a transcript can be and still hold a
// full-length copy of a reference of length L: the alignment spans at
// least minCover·L reference columns, minIdentity of them are matches,
// and each match uses its own transcript base, so the transcript has at
// least minCover·minIdentity·L bases.
const minMatchFrac = minCover * minIdentity

// lengthBucket groups references whose lengths lie within a factor of
// 1.25, so each validate call below aligns few candidates besides
// those that can pass, instead of every short fragment.
func lengthBucket(n int) int { return int(math.Log(float64(max(n, 1))) / math.Log(1.25)) }

// fullLength counts the reference isoforms reconstructed full length
// (Fig. 5), equal to validate.FullLengthReconstruction on the whole
// sets. That count is Smith-Waterman bound, so each group of
// references of similar length is offered only the transcripts the
// length bound above leaves possible, which drops no pair that could
// pass, and the groups are counted in parallel.
func fullLength(ts []trinity.Read, ref []rnaseq.Transcript) int {
	byLen := append([]trinity.Read(nil), ts...)
	sort.SliceStable(byLen, func(i, j int) bool { return len(byLen[i].Seq) > len(byLen[j].Seq) })
	groups := map[int][]rnaseq.Transcript{}
	for _, r := range ref {
		b := lengthBucket(len(r.Seq))
		groups[b] = append(groups[b], r)
	}
	var jobs [][]rnaseq.Transcript
	for _, g := range groups {
		jobs = append(jobs, g)
	}
	counts := make([]int, len(jobs))
	omp.ParallelFor(len(jobs), omp.DefaultThreads(), omp.Schedule{Kind: omp.Dynamic}, func(j, _ int) {
		shortest := math.MaxInt
		for _, r := range jobs[j] {
			shortest = min(shortest, len(r.Seq))
		}
		minLen := minMatchFrac*float64(shortest) - 1
		n := sort.Search(len(byLen), func(i int) bool { return float64(len(byLen[i].Seq)) < minLen })
		counts[j] = validate.FullLengthReconstruction(byLen[:n], jobs[j], minCover, minIdentity).Isoforms
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// refRecall scores the transcripts against the reference sequence
// the reads cover. For each reference isoform it takes the canonical
// k-mers occurring at least twice in the reads (Inchworm's default
// error floor) and the share of those found in the transcripts, and it
// returns the mean over isoforms. Reference sequence the simulated
// expression leaves uncovered cannot be assembled, so it is left out,
// and each isoform weighs the same however long it is; both keep the
// score steadier from seed to seed than the full-length count.
func refRecall(ts, reads []trinity.Read, ref []rnaseq.Transcript, k int) float64 {
	canonical := func(s []byte, fn func(kmer.Kmer)) {
		it := kmer.NewIterator(s, k)
		for {
			m, _, ok := it.Next()
			if !ok {
				return
			}
			c, _ := m.Canonical(k)
			fn(c)
		}
	}
	cover := map[kmer.Kmer]int{}
	for i := range ref {
		canonical(ref[i].Seq, func(m kmer.Kmer) { cover[m] = 0 })
	}
	for i := range reads {
		canonical(reads[i].Seq, func(m kmer.Kmer) {
			if n, ok := cover[m]; ok {
				cover[m] = n + 1
			}
		})
	}
	have := map[kmer.Kmer]bool{}
	for i := range ts {
		canonical(ts[i].Seq, func(m kmer.Kmer) { have[m] = true })
	}
	sum, isoforms := 0.0, 0
	for i := range ref {
		covered, found := 0, 0
		canonical(ref[i].Seq, func(m kmer.Kmer) {
			if cover[m] >= 2 {
				covered++
				if have[m] {
					found++
				}
			}
		})
		if covered > 0 {
			sum += float64(found) / float64(covered)
			isoforms++
		}
	}
	if isoforms == 0 {
		return 0
	}
	return sum / float64(isoforms)
}
