// Command e2ebench is the repository's end-to-end benchmark. For a
// workload it simulates reads from a seed (see generate), writes them
// to FASTA, ingests them with trinity.ReadFasta and times whole
// trinity.Assemble calls in process for the given number of seconds.
// Each assembly is bracketed by a fixed calibration kernel (hostMeter),
// and the reported times are divided by the host's speed it measured;
// the wall time also loses the time the hypervisor took the CPUs away.
// With --trace 1 it also drives the same stages one public call at a
// time (runTraced) and reports a span and counts per layer.
//
// Run it from the repository root through its launcher, which builds
// it first:
//
//	bash e2ebench/run.sh --workload dros-r1 --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it holds the
// check values (transcript digest, quality counts, the memory the
// program reports about itself, traced-versus-untraced stage ratios).
// Every assembly's transcript FASTA is hashed. The run fails, exiting
// 1, when repetitions, the traced run, or a workload that must
// agree for the same reads (dros-r16-lowmem against dros-r1) produce
// different transcripts, when an assembly errors, or when the quality
// gate fails. It exits 2 without a result on bad arguments or when it
// cannot run at all. "go test ." in this directory runs every workload
// on the Tiny preset as a smoke test.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	trinity "gotrinity"
	"gotrinity/internal/seq"
)

const (
	// defaultSeed is the workload seed recorded in BENCHMARK.json.
	defaultSeed = 1
	// minReps is the fewest timed assemblies a run makes, however short
	// its time budget.
	minReps = 3
	// The quality gate: the share of reference isoforms that must be
	// reconstructed full length, and the least refRecall.
	minFullLengthFrac = 0.01
	minRecall         = 0.5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (dros-r1, beet-r16, dros-r16-lowmem)")
	seed := fs.Int64("seed", defaultSeed, "dataset seed")
	seconds := fs.Float64("seconds", 10, "time budget for the timed assemblies")
	traceMode := fs.Int("trace", 0, "1 reports per-layer metrics from traced runs instead of end-to-end metrics")
	tmpRoot := fs.String("tmp", ".bench_build", "directory under which the run keeps its files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "e2ebench: bad arguments: workload %q, trace %d\n", *name, *traceMode)
		return 2
	}
	if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp(*tmpRoot, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep, err := bench(options{
		workload: w,
		profile:  w.profile,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceMode == 1,
		tmp:      tmp,
		log:      stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "e2ebench: FAIL: %s\n", p)
	}
	checks, _ := json.Marshal(map[string]any{"checks": rep.checks})
	line, _ := json.Marshal(rep.result)
	fmt.Fprintf(stdout, "%s\n%s\n", checks, line)
	if !rep.result.Correct {
		return 1
	}
	return 0
}

type options struct {
	workload workload
	profile  func(seed int64) trinity.Profile // dataset shape
	seed     int64
	seconds  float64
	trace    bool
	tmp      string    // temporary directory the caller removes
	log      io.Writer // progress lines
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	result   result
	checks   map[string]any
	problems []string
}

// gate is the digest gate. Every assembly a run makes is checked
// against the first successful one; an assembly fails when it errors
// or its transcripts differ.
type gate struct {
	attempted, failed int
	want              string
	problems          []string
}

func (g *gate) check(label, digest string, err error) {
	g.attempted++
	switch {
	case err != nil:
		g.failed++
		g.problems = append(g.problems, fmt.Sprintf("%s: %v", label, err))
	case g.want == "":
		g.want = digest
	case digest != g.want:
		g.failed++
		g.problems = append(g.problems, fmt.Sprintf("%s: transcript digest %.16s differs from %.16s", label, digest, g.want))
	}
}

// digest hashes records as the FASTA the pipeline would write.
func digest(recs []seq.Record) string {
	h := sha256.New()
	fw := seq.NewFastaWriter(h)
	for i := range recs {
		if err := fw.Write(&recs[i]); err != nil {
			panic(err) // a hash never fails to write
		}
	}
	if err := fw.Flush(); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// assembly is what one untraced Assemble call leaves behind once its
// result is dropped, so that the next call starts from the same heap.
type assembly struct {
	wall, cpu, allocMiB, peakRSSMiB float64
	steal                           float64 // see stealSeconds
	setup                           float64 // the FASTA ingest before it
	hostIdx                         float64 // see hostMeter
	digest                          string
	stages                          map[string]float64 // core's own stage timings
	transcripts                     []seq.Record
	// self is the memory the program reports about itself.
	self map[string]float64
}

func assemble(reads []trinity.Read, cfg trinity.Config) (*assembly, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	steal0, err := stealSeconds()
	if err != nil {
		return nil, err
	}
	p := readProbe()
	res, err := trinity.Assemble(reads, cfg)
	d := p.until(readProbe())
	if err != nil {
		return nil, err
	}
	steal1, err := stealSeconds()
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	a := &assembly{
		wall: d.wall, cpu: d.cpu, allocMiB: d.allocMiB, peakRSSMiB: peak, steal: steal1 - steal0,
		transcripts: res.TranscriptRecords(),
		stages:      map[string]float64{},
		self:        selfReport(res),
	}
	a.digest = digest(a.transcripts)
	for _, s := range res.Trace.Stages {
		a.stages[s.Name] += s.Duration
	}
	return a, nil
}

// repeat calls fn at least n times and, after that, while another
// call, as long as the last one, would end less than half of it past
// budget, so that a run overshoots its budget by little on average.
func repeat(n int, budget float64, fn func()) {
	start := time.Now()
	last := 0.0
	for i := 0; i < n || time.Since(start).Seconds()+last/2 < budget; i++ {
		t0 := time.Now()
		fn()
		last = time.Since(t0).Seconds()
	}
}

func bench(opt options) (*report, error) {
	ds := generate(opt.profile, opt.seed)
	readsPath := filepath.Join(opt.tmp, "reads.fa")
	if err := trinity.WriteFasta(readsPath, ds.Reads); err != nil {
		return nil, fmt.Errorf("write reads: %w", err)
	}
	generated := digest(ds.Reads)
	ds.Reads = nil

	// Set-up is the FASTA ingest every run of the program pays. It is
	// timed once before each untraced assembly, so its samples spread
	// over the whole run like the assembly's; the first ingest, which
	// checks the reads, warms the file cache and is not a sample.
	ingest := func() ([]trinity.Read, float64, error) {
		runtime.GC()
		t0 := time.Now()
		r, err := trinity.ReadFasta(readsPath)
		return r, time.Since(t0).Seconds(), err
	}
	reads, _, err := ingest()
	if err != nil {
		return nil, fmt.Errorf("ingest reads: %w", err)
	}
	if digest(reads) != generated {
		return nil, fmt.Errorf("ingested reads differ from the generated ones")
	}

	cfg := opt.workload.config(opt.tmp)
	g := &gate{}
	var runs []*assembly
	host := newHostMeter()
	untraced := func() {
		label := fmt.Sprintf("assembly %d", g.attempted+1)
		reads = nil
		r, setup, err := ingest()
		if err != nil {
			host.next()
			g.check(label, "", err)
			return
		}
		reads = r
		a, err := assemble(reads, cfg)
		idx := host.next()
		if err != nil {
			g.check(label, "", err)
			return
		}
		a.setup, a.hostIdx = setup, idx
		g.check(label, a.digest, nil)
		if len(runs) > 0 {
			a.transcripts = nil // only the first assembly's are scored
		}
		runs = append(runs, a)
		fmt.Fprintf(opt.log, "%s: ingest %.3fs wall %.3fs cpu %.3fs alloc %.1fMiB peak RSS %.1fMiB steal %.3fs host index %.3f\n",
			label, a.setup, a.wall, a.cpu, a.allocMiB, a.peakRSSMiB, a.steal, a.hostIdx)
	}
	checks := map[string]any{"workload": opt.workload.name, "seed": opt.seed, "reads": len(reads)}
	metrics := map[string]metric{}
	if opt.trace {
		repeat(2, opt.seconds/2, untraced)
		if err := traced(opt, reads, cfg, runs, g, checks, metrics); err != nil {
			return nil, err
		}
	} else {
		repeat(minReps, opt.seconds, untraced)
	}
	if len(runs) == 0 {
		return &report{result: result{Attempted: g.attempted, Failed: g.failed, Metrics: metrics},
			checks: checks, problems: g.problems}, nil
	}

	// Rank and mode invariance: a workload that must agree with another
	// for the same reads assembles them once under the other's config.
	if opt.workload.sameAs != "" {
		other, err := findWorkload(opt.workload.sameAs)
		if err != nil {
			return nil, err
		}
		res, err := trinity.Assemble(reads, other.config(opt.tmp))
		d := ""
		if err == nil {
			d = digest(res.TranscriptRecords())
		}
		g.check(other.name+" config", d, err)
		checks["same_as"] = other.name
	}

	// Quality against the generated reference, outside the timed region.
	first := runs[0]
	fullLength := fullLength(first.transcripts, ds.Reference)
	recall := refRecall(first.transcripts, reads, ds.Reference, 25)
	problems := g.problems
	if float64(fullLength) < minFullLengthFrac*float64(len(ds.Reference)) {
		problems = append(problems, fmt.Sprintf("quality: %d of %d reference isoforms reconstructed full length, want at least %.0f%%",
			fullLength, len(ds.Reference), 100*minFullLengthFrac))
	}
	if recall < minRecall {
		problems = append(problems, fmt.Sprintf("quality: transcripts hold %.1f%% of the read-covered reference k-mers, want at least %.0f%%",
			100*recall, 100*minRecall))
	}
	failedFrac := float64(g.failed) / float64(g.attempted)
	checks["digest"] = g.want
	checks["assemblies"] = len(runs)
	checks["failed_frac"] = failedFrac
	checks["reference_isoforms"] = len(ds.Reference)
	checks["transcripts"] = len(first.transcripts)
	checks["full_length_isoforms"] = fullLength
	checks["ref_recall"] = recall
	for name, v := range first.self {
		checks[name] = v
	}

	if !opt.trace {
		col := func(f func(*assembly) float64) float64 {
			xs := make([]float64, len(runs))
			for i, a := range runs {
				xs[i] = f(a)
			}
			return median(xs)
		}
		// Times are reported divided by their sample's host index, and
		// the wall time less the steal during it, so that they follow
		// the program and not the neighbours; the raw medians, the
		// steal and the index are check values. Peak RSS is a
		// mean: it takes one of two levels, as a collection ends
		// before or after the assembly's largest allocations, and a
		// median flips between them from run to run.
		checks["median_peak_rss_mib"] = col(func(a *assembly) float64 { return a.peakRSSMiB })
		checks["raw_wall_s"] = col(func(a *assembly) float64 { return a.wall })
		checks["raw_cpu_s"] = col(func(a *assembly) float64 { return a.cpu })
		checks["raw_setup_s"] = col(func(a *assembly) float64 { return a.setup })
		checks["steal_s"] = col(func(a *assembly) float64 { return a.steal })
		checks["host_index"] = col(func(a *assembly) float64 { return a.hostIdx })
		metrics["wall_s"] = metric{col(func(a *assembly) float64 { return (a.wall - a.steal) / a.hostIdx }), "s"}
		metrics["cpu_s"] = metric{col(func(a *assembly) float64 { return a.cpu / a.hostIdx }), "s"}
		peak := 0.0
		for _, a := range runs {
			peak += a.peakRSSMiB / float64(len(runs))
		}
		metrics["peak_rss_mib"] = metric{peak, "MiB"}
		metrics["alloc_mib"] = metric{col(func(a *assembly) float64 { return a.allocMiB }), "MiB"}
		metrics["setup_s"] = metric{col(func(a *assembly) float64 { return a.setup / a.hostIdx }), "s"}
		metrics["ref_recall"] = metric{recall, "ratio"}
	}
	return &report{
		result: result{
			Correct:   len(problems) == 0,
			Attempted: g.attempted,
			Failed:    g.failed,
			Metrics:   metrics,
		},
		checks:   checks,
		problems: problems,
	}, nil
}

// selfReport reads the memory the program reports about itself, to
// set beside the measured process peak: external mode's resident peak
// and budget verdict (0 without external mode), and the largest
// per-rank resident k-mer state of the two Chrysalis stages.
func selfReport(res *trinity.Result) map[string]float64 {
	var rankResident int64
	for _, p := range res.GFF.Profiles {
		rankResident = max(rankResident, p.ResidentKmerBytes)
	}
	for _, p := range res.R2T.Profiles {
		rankResident = max(rankResident, p.ResidentKmerBytes)
	}
	self := map[string]float64{
		"shard.reported_rank_resident_mib": float64(rankResident) / mib,
		"external.reported_resident_mib":   0,
		"external.within_budget":           0,
	}
	if ext := res.External; ext != nil {
		self["external.reported_resident_mib"] = float64(ext.ResidentPeakBytes) / mib
		if ext.WithinBudget {
			self["external.within_budget"] = 1
		}
	}
	return self
}

// traced makes traced runs for the second half of the time budget and
// fills the per-layer metrics from the one of median total: each
// layer's span and counts, the tracing overhead against the untraced
// runs, and the time no layer covers.
func traced(opt options, reads []trinity.Read, cfg trinity.Config, runs []*assembly,
	g *gate, checks map[string]any, metrics map[string]metric) error {
	spillDir := filepath.Join(opt.tmp, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	var traces []*tracedRun
	repeat(1, opt.seconds/2, func() {
		runtime.GC()
		tr, err := runTraced(reads, cfg, spillDir)
		d := ""
		if err == nil {
			d = digest(tr.transcripts)
			tr.transcripts = nil
			traces = append(traces, tr)
		}
		g.check(fmt.Sprintf("traced run %d", len(traces)), d, err)
	})
	if len(traces) == 0 || len(runs) == 0 {
		return nil
	}
	// Report the traced run of median total, so that its layer spans
	// and its unattributed time add up to its total.
	sort.Slice(traces, func(i, j int) bool { return traces[i].total < traces[j].total })
	tr := traces[(len(traces)-1)/2]
	attributed := 0.0
	for _, l := range layers {
		s := tr.spans[l]
		metrics[l+".wall_s"] = metric{s.wall, "s"}
		metrics[l+".cpu_s"] = metric{s.cpu, "s"}
		metrics[l+".alloc_mib"] = metric{s.allocMiB, "MiB"}
		metrics[l+".live_mib"] = metric{s.liveMiB, "MiB"}
		attributed += s.wall
	}
	for _, c := range countMetrics {
		metrics[c.name] = metric{tr.counts[c.name], c.unit}
	}
	wall := make([]float64, len(runs))
	for i, a := range runs {
		wall[i] = a.wall
	}
	metrics["trace.total_s"] = metric{tr.total, "s"}
	metrics["trace.overhead_s"] = metric{tr.total - median(wall), "s"}
	metrics["trace.unattributed_s"] = metric{tr.total - attributed, "s"}

	// Cross-check: each traced layer against core's own timing of the
	// same stage in the untraced runs (ratio traced/core).
	ratios := map[string]float64{}
	for _, cs := range coreStages {
		coreTimes := make([]float64, len(runs))
		for i, a := range runs {
			coreTimes[i] = a.stages[cs.stage]
		}
		mine := 0.0
		for _, l := range cs.layers {
			mine += tr.spans[l].wall
		}
		if c := median(coreTimes); c > 0 {
			ratios[cs.stage] = mine / c
		}
	}
	for name, v := range runs[0].self {
		unit := "MiB"
		if name == "external.within_budget" {
			unit = "bool"
		}
		metrics[name] = metric{v, unit}
	}
	checks["traced_over_core"] = ratios
	checks["traced_runs"] = len(traces)
	return nil
}

// countMetrics are the per-layer counts, read from the stats structs
// the traced calls return. A layer the workload does not run reports 0.
var countMetrics = []struct{ name, unit string }{
	{"seq.packed_mib", "MiB"},
	{"jellyfish.distinct_kmers", "count"},
	{"jellyfish.kmers_per_s", "1/s"},
	{"dsk.partition_mib", "MiB"},
	{"dsk.peak_partition_kmers", "count"},
	{"inchworm.extension_ops", "count"},
	{"inchworm.contigs", "count"},
	{"inchworm.kept_frac", "ratio"},
	{"pyfasta.part_imbalance", "ratio"},
	{"bowtie.seed_probes", "count"},
	{"bowtie.bases_compared", "count"},
	{"bowtie.aligned_frac", "ratio"},
	{"bowtie.index_mib", "MiB"},
	{"bowtie.spill_mib", "MiB"},
	{"chrysalis.gff.components", "count"},
	{"chrysalis.gff.welds", "count"},
	{"chrysalis.gff.loop_imbalance", "ratio"},
	{"chrysalis.gff.resident_kmer_mib", "MiB"},
	{"chrysalis.r2t.assigned_frac", "ratio"},
	{"chrysalis.r2t.loop_imbalance", "ratio"},
	{"chrysalis.r2t.resident_kmer_mib", "MiB"},
	{"mpi.bytes_sent", "B"},
	{"mpi.messages", "count"},
	{"mpi.collective_ops", "count"},
	{"shard.exchange_mib", "MiB"},
	{"chrysalis.debruijn.imbalance", "ratio"},
	{"butterfly.reconstruct.imbalance", "ratio"},
	{"butterfly.reconstruct.transcripts", "count"},
}
