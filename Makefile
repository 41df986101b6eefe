# Build and verification entry points. `make verify` is the full
# pre-merge battery: it includes the race detector because the hybrid
# Chrysalis runs ranks as goroutines and the fault-tolerance layer
# adds shared checkpoint stores — a data race there is a correctness
# bug, not a style issue.

GO ?= go

.PHONY: build test race fuzz bench bench-chrysalis bench-kernels bench-pipeline bench-shard bench-seq bench-fm lint-ascii verify clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over every fuzz target (seed corpora always run as
# part of `make test`; this shakes the generators for a few seconds
# each).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadComponents -fuzztime 10s ./internal/chrysalis/
	$(GO) test -run '^$$' -fuzz FuzzReadAssignments -fuzztime 10s ./internal/chrysalis/
	$(GO) test -run '^$$' -fuzz FuzzChrysalisDegenerateInput -fuzztime 10s ./internal/chrysalis/
	$(GO) test -run '^$$' -fuzz FuzzReadSAM -fuzztime 10s ./internal/bowtie/
	$(GO) test -run '^$$' -fuzz FuzzAlignDegenerateReads -fuzztime 10s ./internal/bowtie/
	$(GO) test -run '^$$' -fuzz FuzzFlatSet -fuzztime 10s ./internal/kmer/
	$(GO) test -run '^$$' -fuzz FuzzStreamingMerge -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzPackedBackwardSearch -fuzztime 10s ./internal/fm/

bench:
	$(GO) test -bench=. -benchmem .

# Chrysalis overhead snapshot: the fault-layer and trace-recorder
# benchmarks, recorded as BENCH_chrysalis.json so overhead regressions
# show up in review diffs. The awk pass converts `go test -bench`
# lines ("BenchmarkName-8  N  v unit  v unit ...") into one JSON
# object per benchmark.
BENCH_JSON ?= BENCH_chrysalis.json
bench-chrysalis:
	$(GO) test -run '^$$' -bench 'Chrysalis(WithFaultLayer|TraceRecorder)' -benchtime 3x . \
	| awk 'BEGIN { printf("{\n") } \
	       /^Benchmark/ { if (n++) printf(",\n"); \
	         printf("  \"%s\": {\"iterations\": %s", $$1, $$2); \
	         for (i = 3; i < NF; i += 2) printf(", \"%s\": %s", $$(i+1), $$i); \
	         printf("}") } \
	       END { printf("\n}\n") }' > $(BENCH_JSON)
	@cat $(BENCH_JSON)

# Hot-path kernel snapshot: each flat/frozen Chrysalis kernel
# benchmarked against the map-based reference it replaced, plus the
# Jellyfish counting and Inchworm stages on the drosophila preset,
# recorded as BENCH_kernels.json so the speedups (and any regressions)
# show up in review diffs. Same awk JSON conversion as bench-chrysalis.
KERNEL_BENCH = HarvestWelds|ScanContigForWelds|BuildContigKmerIndex|AssignRead|CountTableGet|CountPacked|InchwormRun
BENCH_KERNELS_JSON ?= BENCH_kernels.json
bench-kernels:
	{ $(GO) test -run '^$$' -bench 'Benchmark(HarvestWelds|ScanContigForWelds|BuildContigKmerIndex|AssignRead)' -benchmem -benchtime 1s ./internal/chrysalis/ ; \
	  $(GO) test -run '^$$' -bench 'Benchmark(CountTableGet|CountPacked)' -benchmem -benchtime 1s ./internal/jellyfish/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkInchwormRun' -benchmem -benchtime 1s ./internal/inchworm/ ; } \
	| awk 'BEGIN { printf("{\n") } \
	       /^Benchmark/ { if (n++) printf(",\n"); \
	         printf("  \"%s\": {\"iterations\": %s", $$1, $$2); \
	         for (i = 3; i < NF; i += 2) printf(", \"%s\": %s", $$(i+1), $$i); \
	         printf("}") } \
	       END { printf("\n}\n") }' > $(BENCH_KERNELS_JSON)
	@cat $(BENCH_KERNELS_JSON)

# Pipeline-tail snapshot: the serial-vs-parallel tail sweep plus the
# streaming-vs-barrier DAG sweep, recorded as BENCH_pipeline.json
# (wall tail seconds plus the deterministic LPT makespan models — see
# DESIGN.md #9 and #10) so tail-scaling regressions show up in review
# diffs. Same awk JSON conversion as bench-chrysalis.
BENCH_PIPELINE_JSON ?= BENCH_pipeline.json
bench-pipeline:
	$(GO) test -run '^$$' -bench 'BenchmarkPipeline(Tail|Streaming)' -benchtime 3x -timeout 30m . \
	| awk 'BEGIN { printf("{\n") } \
	       /^Benchmark/ { if (n++) printf(",\n"); \
	         printf("  \"%s\": {\"iterations\": %s", $$1, $$2); \
	         for (i = 3; i < NF; i += 2) printf(", \"%s\": %s", $$(i+1), $$i); \
	         printf("}") } \
	       END { printf("\n}\n") }' > $(BENCH_PIPELINE_JSON)
	@cat $(BENCH_PIPELINE_JSON)

# Sharded k-mer state snapshot: per-rank resident bytes, lookup
# exchange bytes and the overlapped tile pipeline's hidden-fetch
# fraction for the replicated vs ShardKmers GraphFromFasta and
# ReadsToTranscripts at ranks {1,4,16}, recorded as BENCH_shard.json
# so the memory-vs-bytes trade shows up in review diffs. Same awk JSON
# conversion as bench-chrysalis.
BENCH_SHARD_JSON ?= BENCH_shard.json
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkShardScaling' -benchtime 3x -timeout 30m . \
	| awk 'BEGIN { printf("{\n") } \
	       /^Benchmark/ { if (n++) printf(",\n"); \
	         printf("  \"%s\": {\"iterations\": %s", $$1, $$2); \
	         for (i = 3; i < NF; i += 2) printf(", \"%s\": %s", $$(i+1), $$i); \
	         printf("}") } \
	       END { printf("\n}\n") }' > $(BENCH_SHARD_JSON)
	@cat $(BENCH_SHARD_JSON)

# Packed-sequence snapshot: resident-byte ratio of the 2-bit
# representation (ascii/packed must stay ≥ 2), the packing/ingest
# throughput, the word-wise vs byte-loop reverse complement, and the
# packed vs ASCII k-mer extraction (the no-regression pin), recorded
# as BENCH_seq.json so representation regressions show up in review
# diffs. Same awk JSON conversion as bench-chrysalis.
BENCH_SEQ_JSON ?= BENCH_seq.json
bench-seq:
	{ $(GO) test -run '^$$' -bench 'BenchmarkSeq(PackedResidentBytes|Pack$$|RevComp)' -benchtime 1s ./internal/seq/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkKmerIter' -benchtime 1s ./internal/kmer/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkDSKCount' -benchtime 1s ./internal/dsk/ ; } \
	| awk 'BEGIN { printf("{\n") } \
	       /^Benchmark/ { if (n++) printf(",\n"); \
	         printf("  \"%s\": {\"iterations\": %s", $$1, $$2); \
	         for (i = 3; i < NF; i += 2) printf(", \"%s\": %s", $$(i+1), $$i); \
	         printf("}") } \
	       END { printf("\n}\n") }' > $(BENCH_SEQ_JSON)
	@cat $(BENCH_SEQ_JSON)

# Packed FM-index snapshot: backward-search and locate throughput of
# the 2-bit packed index vs the ASCII index over the same text (the
# searchx/residentx ratios must stay ≥ 3), plus the parallel
# suffix-array construction sweep (workers=4 must stay > 1.5x faster
# than workers=1), recorded as BENCH_fm.json so index regressions show
# up in review diffs. Same awk JSON conversion as bench-chrysalis.
BENCH_FM_JSON ?= BENCH_fm.json
bench-fm:
	$(GO) test -run '^$$' -bench 'BenchmarkFM(Search|Locate|Resident|Build)' -benchmem -benchtime 1s -timeout 30m ./internal/fm/ \
	| awk 'BEGIN { printf("{\n") } \
	       /^Benchmark/ { if (n++) printf(",\n"); \
	         printf("  \"%s\": {\"iterations\": %s", $$1, $$2); \
	         for (i = 3; i < NF; i += 2) printf(", \"%s\": %s", $$(i+1), $$i); \
	         printf("}") } \
	       END { printf("\n}\n") }' > $(BENCH_FM_JSON)
	@cat $(BENCH_FM_JSON)

# ASCII-decode gate for the packed hot paths: sequence payloads in the
# Chrysalis/Inchworm/Jellyfish/Bowtie packages must stay 2-bit packed —
# any .Decode()/.AppendDecode materialisation needs an explicit
# `ascii-ok: <why>` annotation naming the file/result boundary it
# serves. New unannotated conversions fail the build.
LINT_ASCII_PKGS = internal/chrysalis internal/inchworm internal/jellyfish internal/bowtie internal/fm
lint-ascii:
	@bad=$$(grep -nE '\.Decode\(|\.AppendDecode\(' $$(find $(LINT_ASCII_PKGS) -name '*.go' ! -name '*_test.go') /dev/null | grep -v 'ascii-ok:'; true); \
	if [ -n "$$bad" ]; then \
	  echo "$$bad"; \
	  echo "lint-ascii: sequence payload decoded to ASCII in a packed hot path (annotate '// ascii-ok: <why>' only at a file/result boundary)"; \
	  exit 1; \
	fi
	@echo "lint-ascii: clean"

verify: build lint-ascii
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race ./internal/core/...
	$(GO) test -race ./internal/shard/... ./internal/mpi/...
	$(GO) test -race ./internal/chrysalis/...
	$(GO) test -race ./internal/seq/... ./internal/dsk/...
	$(GO) test -race ./internal/fm/... ./internal/bowtie/...
	$(GO) test -run '^$$' -bench 'Chrysalis(WithFaultLayer|TraceRecorder)' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'Benchmark($(KERNEL_BENCH))' -benchtime 1x ./internal/chrysalis/ ./internal/jellyfish/ ./internal/inchworm/
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineTail' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineStreaming' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkShardScaling' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkSeq(PackedResidentBytes|RevComp)|BenchmarkKmerIter' -benchtime 1x ./internal/seq/ ./internal/kmer/
	$(GO) test -run '^$$' -bench 'BenchmarkFM(Search|Locate|Resident|Build)' -benchtime 1x ./internal/fm/

clean:
	rm -rf bin
