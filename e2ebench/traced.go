package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	trinity "gotrinity"
	"gotrinity/internal/bowtie"
	"gotrinity/internal/butterfly"
	"gotrinity/internal/chrysalis"
	"gotrinity/internal/core"
	"gotrinity/internal/dsk"
	"gotrinity/internal/inchworm"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/omp"
	"gotrinity/internal/pyfasta"
	"gotrinity/internal/seq"
)

// layers are the stage layers the traced run spans, in pipeline order.
// A layer a workload does not run reports zeros.
var layers = []string{
	"seq.pack", "jellyfish", "dsk", "inchworm", "pyfasta", "bowtie",
	"chrysalis.gff", "chrysalis.r2t", "chrysalis.debruijn",
	"butterfly.reconstruct", "butterfly.pairs",
}

// coreStages maps core's own stage names (Result.Trace.Stages) to the
// traced layers covering the same calls, to cross-check the traced run.
// core packs the reads and contigs outside its stages, so seq.pack has
// no counterpart, and it runs PyFasta inside its bowtie stage.
var coreStages = []struct {
	stage  string
	layers []string
}{
	{"jellyfish", []string{"jellyfish", "dsk"}},
	{"inchworm", []string{"inchworm"}},
	{"bowtie", []string{"pyfasta", "bowtie"}},
	{"graphfromfasta", []string{"chrysalis.gff"}},
	{"readstotranscripts", []string{"chrysalis.r2t"}},
	{"fastatodebruijn", []string{"chrysalis.debruijn"}},
	{"butterfly", []string{"butterfly.reconstruct", "butterfly.pairs"}},
}

// span is one layer's share of a traced run. A layer called more than
// once (seq.pack, bowtie) sums its calls; live is the heap still
// reachable after its last call.
type span struct {
	wall, cpu, allocMiB, liveMiB float64
}

// tracedRun is the outcome of one traced assembly.
type tracedRun struct {
	transcripts []seq.Record
	spans       map[string]span
	counts      map[string]float64
	// total is the run's wall time minus the tracer's own forced
	// collections, so spans plus unattributed time add up to it.
	total float64
}

type tracer struct {
	spans    map[string]span
	excluded time.Duration
}

// call runs fn as (part of) layer name, then forces a collection to
// read the live heap; the collection is excluded from the run total.
func (t *tracer) call(name string, fn func() error) error {
	p := readProbe()
	err := fn()
	d := p.until(readProbe())
	gc := time.Now()
	s := t.spans[name]
	s.wall += d.wall
	s.cpu += d.cpu
	s.allocMiB += d.allocMiB
	s.liveMiB = liveHeapMiB()
	t.spans[name] = s
	t.excluded += time.Since(gc)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// bowtiePart is one PyFasta partition's alignment output.
type bowtiePart struct {
	als      []bowtie.Alignment
	st       bowtie.Stats
	indexMiB float64
	err      error
}

// runTraced drives the pipeline one public call at a time, in the
// order and with the options of core.Run's packed barrier-stepped
// tail, and records a span around each call. It supports the
// configurations the workloads use: the packed default, ranks, sharded
// Chrysalis and external mode. spillDir receives the external mode's
// Bowtie partition files.
func runTraced(reads []seq.Record, cfg trinity.Config, spillDir string) (*tracedRun, error) {
	k := cfg.K
	if k <= 0 {
		k = 25
	}
	ranks := max(cfg.Ranks, 1)
	threads := cfg.ThreadsPerRank
	if threads <= 0 {
		threads = 16
	}
	overlap := chrysalis.OverlapDefault
	if cfg.NoOverlapFetch {
		overlap = chrysalis.OverlapOff
	}
	workers := omp.DefaultThreads()
	t := &tracer{spans: map[string]span{}}
	counts := map[string]float64{}
	start := time.Now()

	var preads []seq.PackedRecord
	if err := t.call("seq.pack", func() error {
		preads = seq.PackRecords(reads)
		return nil
	}); err != nil {
		return nil, err
	}

	var table *jellyfish.CountTable
	var err error
	if cfg.External.Enabled {
		err = t.call("dsk", func() error {
			entries, st, err := dsk.CountPacked(preads, dsk.Options{
				K: k, Partitions: cfg.External.Partitions, TmpDir: cfg.External.TmpDir,
			})
			if err != nil {
				return err
			}
			table = jellyfish.FromEntries(k, entries)
			counts["dsk.partition_mib"] = float64(st.PartitionBytes) / mib
			counts["dsk.peak_partition_kmers"] = float64(st.PeakPartition)
			return nil
		})
	} else {
		err = t.call("jellyfish", func() error {
			var err error
			table, err = jellyfish.CountPacked(preads, jellyfish.Options{K: k})
			return err
		})
		if err == nil {
			counts["jellyfish.distinct_kmers"] = float64(table.Distinct())
			counts["jellyfish.kmers_per_s"] = float64(table.Total()) / t.spans["jellyfish"].wall
		}
	}
	if err != nil {
		return nil, err
	}

	var contigs []seq.Record
	if err := t.call("inchworm", func() error {
		var st inchworm.Stats
		var err error
		contigs, st, err = inchworm.Run(table.Entries(1), inchworm.Options{K: k, MinKmerCount: cfg.MinKmerCount})
		counts["inchworm.extension_ops"] = float64(st.ExtensionOps)
		counts["inchworm.contigs"] = float64(st.Contigs)
		if st.KmersIn > 0 {
			counts["inchworm.kept_frac"] = float64(st.KmersKept) / float64(st.KmersIn)
		}
		if err == nil && len(contigs) == 0 {
			err = fmt.Errorf("no contigs")
		}
		return err
	}); err != nil {
		return nil, err
	}

	pcontigs := make([]seq.Packed, len(contigs))
	if err := t.call("seq.pack", func() error {
		for i := range contigs {
			pcontigs[i] = seq.Pack(contigs[i].Seq)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	packed := 0
	for i := range preads {
		packed += preads[i].Seq.MemBytes()
	}
	for i := range pcontigs {
		packed += pcontigs[i].MemBytes()
	}
	counts["seq.packed_mib"] = float64(packed) / mib

	// --- Bowtie over PyFasta partitions, as core's bowtie stage.
	idx := [][]int{make([]int, len(contigs))}
	for i := range idx[0] {
		idx[0][i] = i
	}
	if ranks > 1 {
		if err := t.call("pyfasta", func() error {
			var err error
			idx, _, err = pyfasta.SplitIndices(contigs, ranks, pyfasta.EvenBases)
			return err
		}); err != nil {
			return nil, err
		}
		counts["pyfasta.part_imbalance"] = partImbalance(idx, contigs)
	}
	parts := make([]bowtiePart, len(idx))
	if err := t.call("bowtie", func() error {
		return alignPartitions(parts, idx, preads, contigs, pcontigs, cfg.Bowtie, workers)
	}); err != nil {
		return nil, err
	}
	if cfg.External.Enabled {
		// core spills finished partitions and reads them back before the
		// merge; that orchestration is private to core, so it stays
		// outside the layer spans and shows as unattributed time.
		spilled, err := spillPartitions(parts, spillDir)
		if err != nil {
			return nil, err
		}
		counts["bowtie.spill_mib"] = float64(spilled) / mib
	}
	var scaffolds [][2]int32
	if err := t.call("bowtie", func() error {
		var merged [][]bowtie.Alignment
		for p := range parts {
			if len(idx[p]) > 0 {
				merged = append(merged, parts[p].als)
			}
		}
		best := bowtie.BestPerRead(bowtie.MergeSAM(merged))
		scaffolds = core.ScaffoldPairs(best)
		counts["bowtie.aligned_frac"] = float64(len(best)) / float64(len(reads))
		return nil
	}); err != nil {
		return nil, err
	}
	for _, p := range parts {
		counts["bowtie.seed_probes"] += float64(p.st.SeedProbes)
		counts["bowtie.bases_compared"] += float64(p.st.BasesCompared)
		counts["bowtie.index_mib"] += p.indexMiB
	}

	// --- Chrysalis.
	var gff *chrysalis.GFFResult
	if err := t.call("chrysalis.gff", func() error {
		var err error
		gff, err = chrysalis.GraphFromFasta(contigs, table, ranks, chrysalis.GFFOptions{
			K:                 k,
			MinWeldSupport:    cfg.MinWeldSupport,
			MaxWeldsPerContig: cfg.MaxWelds,
			ThreadsPerRank:    threads,
			Seed:              cfg.Seed,
			ShardKmers:        cfg.ShardKmers,
			OverlapFetch:      overlap,
			FetchTileChunks:   cfg.FetchTileChunks,
			ScaffoldPairs:     scaffolds,
			Replicas:          cfg.Replicas,
			Packed:            true,
			PackedContigs:     pcontigs,
		})
		return err
	}); err != nil {
		return nil, err
	}
	var r2t *chrysalis.R2TResult
	if err := t.call("chrysalis.r2t", func() error {
		var err error
		r2t, err = chrysalis.ReadsToTranscripts(reads, contigs, gff.Components, ranks, chrysalis.R2TOptions{
			K:               k,
			MaxMemReads:     cfg.MaxMemReads,
			ThreadsPerRank:  threads,
			ShardKmers:      cfg.ShardKmers,
			OverlapFetch:    overlap,
			FetchTileChunks: cfg.FetchTileChunks,
			Replicas:        cfg.Replicas,
			Packed:          true,
			PackedReads:     preads,
			PackedContigs:   pcontigs,
		})
		return err
	}); err != nil {
		return nil, err
	}
	chrysalisCounts(counts, gff, r2t, len(reads))

	// --- Component-parallel tail.
	var graphs []*chrysalis.ComponentGraph
	if err := t.call("chrysalis.debruijn", func() error {
		var prof omp.Profile
		var err error
		graphs, _, prof, err = chrysalis.FastaToDeBruijnParallel(contigs, gff.Components, k, reads, r2t.Assignments, workers)
		counts["chrysalis.debruijn.imbalance"] = finite(prof.Imbalance())
		return err
	}); err != nil {
		return nil, err
	}
	var ts []butterfly.Transcript
	if err := t.call("butterfly.reconstruct", func() error {
		bopt := cfg.Butterfly
		if bopt.Seed == 0 {
			bopt.Seed = cfg.Seed
		}
		var prof omp.Profile
		ts, prof = butterfly.ReconstructParallel(graphs, bopt, workers)
		counts["butterfly.reconstruct.imbalance"] = finite(prof.Imbalance())
		counts["butterfly.reconstruct.transcripts"] = float64(len(ts))
		return nil
	}); err != nil {
		return nil, err
	}
	if err := t.call("butterfly.pairs", func() error {
		butterfly.PairSupportParallel(ts, graphs, reads, workers)
		return nil
	}); err != nil {
		return nil, err
	}

	return &tracedRun{
		transcripts: butterfly.Records(ts),
		spans:       t.spans,
		counts:      counts,
		total:       (time.Since(start) - t.excluded).Seconds(),
	}, nil
}

// alignPartitions aligns every read against each contig partition,
// concurrently over the tail pool as core does, dividing the aligner's
// threads among the concurrent partitions, and maps hits back to
// global contig numbers.
func alignPartitions(parts []bowtiePart, idx [][]int, preads []seq.PackedRecord,
	contigs []seq.Record, pcontigs []seq.Packed, opt bowtie.Options, workers int) error {
	active := 0
	for _, ids := range idx {
		if len(ids) > 0 {
			active++
		}
	}
	concurrent := workers > 1 && active > 1
	if opt.Threads <= 0 {
		opt.Threads = omp.DefaultThreads()
	}
	if concurrent {
		opt.Threads = max(opt.Threads/min(workers, active), 1)
	}
	align := func(p int) {
		ids := idx[p]
		if len(ids) == 0 {
			return
		}
		part := make([]seq.PackedRecord, len(ids))
		for j, ci := range ids {
			part[j] = seq.PackedRecord{ID: contigs[ci].ID, Seq: pcontigs[ci]}
		}
		ix, err := bowtie.NewPackedIndex(part, opt)
		if err != nil {
			parts[p].err = err
			return
		}
		als, st := bowtie.NewPackedAligner(ix).AlignAll(preads)
		for i := range als {
			als[i].Contig = ids[als[i].Contig]
		}
		parts[p] = bowtiePart{als: als, st: st, indexMiB: float64(ix.MemoryFootprint()) / mib}
	}
	if concurrent {
		omp.ParallelFor(len(idx), workers, omp.Schedule{Kind: omp.Dynamic}, func(p, _ int) { align(p) })
	} else {
		for p := range idx {
			align(p)
		}
	}
	for p := range parts {
		if parts[p].err != nil {
			return parts[p].err
		}
	}
	return nil
}

// spillPartitions writes each partition's alignments to spillDir and
// reads them back, as external mode does, returning the bytes written.
func spillPartitions(parts []bowtiePart, spillDir string) (int64, error) {
	var total int64
	for p := range parts {
		buf := bowtie.AppendAlignments(nil, parts[p].als)
		path := filepath.Join(spillDir, fmt.Sprintf("part%04d.aln", p))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return 0, fmt.Errorf("bowtie spill: %w", err)
		}
		back, err := os.ReadFile(path)
		if err != nil {
			return 0, fmt.Errorf("bowtie spill: %w", err)
		}
		if parts[p].als, err = bowtie.DecodeAlignments(back); err != nil {
			return 0, fmt.Errorf("bowtie spill partition %d: %w", p, err)
		}
		if err := os.Remove(path); err != nil {
			return 0, fmt.Errorf("bowtie spill: %w", err)
		}
		total += int64(len(buf))
	}
	return total, nil
}

// partImbalance is the largest partition's contig bases over the mean.
func partImbalance(idx [][]int, contigs []seq.Record) float64 {
	total, largest := 0, 0
	for _, ids := range idx {
		bases := 0
		for _, ci := range ids {
			bases += len(contigs[ci].Seq)
		}
		total += bases
		largest = max(largest, bases)
	}
	if total == 0 {
		return 0
	}
	return float64(largest) * float64(len(idx)) / float64(total)
}

// chrysalisCounts folds the per-rank profiles GraphFromFasta and
// ReadsToTranscripts return into the Chrysalis, mpi and shard counts.
func chrysalisCounts(counts map[string]float64, gff *chrysalis.GFFResult, r2t *chrysalis.R2TResult, reads int) {
	counts["chrysalis.gff.components"] = float64(len(gff.Components))
	counts["chrysalis.gff.welds"] = float64(len(gff.Welds))
	counts["chrysalis.r2t.assigned_frac"] = float64(len(r2t.Assignments)) / float64(reads)
	var gffImb, gffRes, r2tImb, r2tRes, exchange float64
	var sent, messages, collectives int64
	for _, p := range gff.Profiles {
		gffImb = max(gffImb, finite(p.Loop1Imbalance), finite(p.Loop2Imbalance))
		gffRes = max(gffRes, float64(p.ResidentKmerBytes)/mib)
		exchange += float64(p.ShardExchangeBytes) / mib
		sent += p.Comm1.BytesSent + p.Comm2.BytesSent
		messages += p.Comm1.Messages + p.Comm2.Messages
		collectives += p.Comm1.CollectiveOps + p.Comm2.CollectiveOps
	}
	for _, p := range r2t.Profiles {
		r2tImb = max(r2tImb, finite(p.LoopImbalance))
		r2tRes = max(r2tRes, float64(p.ResidentKmerBytes)/mib)
		exchange += float64(p.ShardExchangeBytes) / mib
		sent += p.Comm.BytesSent
		messages += p.Comm.Messages
		collectives += p.Comm.CollectiveOps
	}
	counts["chrysalis.gff.loop_imbalance"] = gffImb
	counts["chrysalis.gff.resident_kmer_mib"] = gffRes
	counts["chrysalis.r2t.loop_imbalance"] = r2tImb
	counts["chrysalis.r2t.resident_kmer_mib"] = r2tRes
	counts["mpi.bytes_sent"] = float64(sent)
	counts["mpi.messages"] = float64(messages)
	counts["mpi.collective_ops"] = float64(collectives)
	counts["shard.exchange_mib"] = exchange
}
