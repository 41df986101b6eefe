// Packed-input counting. CountPacked is Count over 2-bit packed reads:
// the same partition-then-count loop, fed by kmer.NewPackedIterator so
// no ASCII decode happens on the hot path. Because the packed iterator
// emits the exact k-mer stream of the ASCII iterator, the resulting
// table is identical to Count over the decoded records.

package jellyfish

import (
	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// CountPacked counts k-mer occurrences across packed reads.
func CountPacked(recs []seq.PackedRecord, opt Options) (*CountTable, error) {
	return countPackedRecords(recs, opt, batchKmers)
}

func countPackedRecords(recs []seq.PackedRecord, opt Options, batch int) (*CountTable, error) {
	return countWith(opt, batch, len(recs),
		func(i int) int { return recs[i].Seq.Len() },
		func(lo, hi int, c *cutter) {
			for i := lo; i < hi; i++ {
				it := kmer.NewPackedIterator(recs[i].Seq, c.k)
				for {
					m, _, ok := it.Next()
					if !ok {
						break
					}
					c.add(m)
				}
			}
		})
}
