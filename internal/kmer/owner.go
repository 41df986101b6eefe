package kmer

// OwnerRank deterministically partitions k-mer space across worldSize
// ranks — the HipMer-style owner map the distributed k-mer table is
// built on. Every rank computes the same owner for the same k-mer with
// no communication, which is what makes aggregated remote lookups
// routable and a dead owner's shard reconstructible by any survivor.
// The splitmix64 finaliser Mix spreads the 2-bit packing's low-bit
// structure so shards stay balanced even for biologically skewed k-mer
// sets.
func OwnerRank(m Kmer, worldSize int) int {
	if worldSize <= 1 {
		return 0
	}
	return int(Mix(uint64(m)) % uint64(worldSize))
}
