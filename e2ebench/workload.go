package main

import (
	"fmt"

	trinity "gotrinity"
)

// workload is one dataset shape plus the pipeline configuration it is
// assembled with. Every workload keeps the pipeline's default flags
// apart from the ones set in config.
type workload struct {
	name    string
	profile func(seed int64) trinity.Profile
	// config returns the run configuration; tmp is a directory the
	// benchmark owns, for the modes that spill to disk.
	config func(tmp string) trinity.Config
	// sameAs names a workload whose transcripts must be byte-identical
	// to this one's for the same reads (rank and mode invariance).
	sameAs string
}

// lowMemBudget is dros-r16-lowmem's advisory resident budget.
const lowMemBudget = 4 << 20

var workloads = []workload{
	{
		// The plain OpenMP-only Trinity: the in-memory k-mer counter,
		// Inchworm and Butterfly dominate, Chrysalis is light.
		name:    "dros-r1",
		profile: trinity.DrosophilaProfile,
		config:  func(string) trinity.Config { return trinity.Config{Ranks: 1} },
	},
	{
		// The paper's hybrid configuration on its headline dataset: 16
		// Bowtie partitions that each align every read, and
		// GraphFromFasta/ReadsToTranscripts over MPI collectives.
		name:    "beet-r16",
		profile: trinity.SugarbeetProfile,
		config:  func(string) trinity.Config { return trinity.Config{Ranks: 16} },
	},
	{
		// The same layers the low-memory way: disk-partitioned
		// counting, sharded Chrysalis lookups over fetch rounds, and a
		// spilled Bowtie merge.
		name:    "dros-r16-lowmem",
		profile: trinity.DrosophilaProfile,
		config: func(tmp string) trinity.Config {
			cfg := trinity.Config{Ranks: 16, ShardKmers: true}
			cfg.External.Enabled = true
			cfg.External.MemoryBudget = lowMemBudget
			cfg.External.TmpDir = tmp
			return cfg
		},
		sameAs: "dros-r1",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
