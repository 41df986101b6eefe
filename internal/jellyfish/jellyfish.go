// Package jellyfish is the k-mer counting stage of the pipeline,
// mirroring the role of Jellyfish in Trinity: it counts canonical (or
// stranded) k-mers across millions of reads by partition-then-count
// into flat open-addressing tables, and dumps the counts in the text
// format consumed by Inchworm ("count kmer" per line, like
// `jellyfish dump -c`).
package jellyfish

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// Options configures a counting run.
type Options struct {
	K         int  // k-mer length (1..31)
	Canonical bool // count k-mer and reverse complement together
	Threads   int  // worker goroutines; 0 means GOMAXPROCS
}

func (o *Options) normalize() error {
	if o.K <= 0 || o.K > kmer.MaxK {
		return fmt.Errorf("jellyfish: k=%d out of range 1..%d", o.K, kmer.MaxK)
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	return nil
}

// partBits sets the partition count of a CountTable, 2^partBits.
const partBits = 8

// CountTable holds k-mer counts in 2^partBits flat open-addressing
// partitions. A k-mer's partition is its leading partBits bits, so
// the partitions are already in k-mer order and each can be counted,
// sorted or frozen on its own. Count fills the partitions from
// concurrent workers that each own whole partitions; Add and Get are
// for single-goroutine builders and for readers once counting is done.
type CountTable struct {
	K     int
	top   uint // 64-2K: shifts a k-mer's first base to the word's top bits
	parts [1 << partBits]partition
}

// partition is one linear-probing table at ≤ 2/3 load. keys holds
// (kmer<<1)|1, as in kmer.FlatSet, so the zero word marks an empty
// slot even for the all-A k-mer; counts is parallel to keys.
type partition struct {
	keys   []uint64
	counts []uint32
	mask   uint64
	n      int
}

const minPartSlots = 16

// NewCountTable allocates an empty table for k-mers of length k.
func NewCountTable(k int) *CountTable {
	t := &CountTable{K: k, top: uint(64 - 2*k)}
	for p := range t.parts {
		t.parts[p].resize(minPartSlots)
	}
	return t
}

// partOf returns m's partition index: its leading partBits bits, with
// k-mers shorter than partBits/2 bases padded by zero bits.
func (t *CountTable) partOf(m kmer.Kmer) uint64 {
	return uint64(m) << t.top >> (64 - partBits)
}

// Add increments the count of m by delta. Not safe for concurrent use.
func (t *CountTable) Add(m kmer.Kmer, delta uint32) {
	t.parts[t.partOf(m)].add(m, delta)
}

// Get returns the count of m.
func (t *CountTable) Get(m kmer.Kmer) uint32 {
	return t.parts[t.partOf(m)].get(m)
}

// Distinct returns the number of distinct k-mers stored.
func (t *CountTable) Distinct() int {
	n := 0
	for p := range t.parts {
		n += t.parts[p].n
	}
	return n
}

// Total returns the total number of k-mer occurrences counted.
func (t *CountTable) Total() uint64 {
	var n uint64
	for p := range t.parts {
		for _, c := range t.parts[p].counts {
			n += uint64(c)
		}
	}
	return n
}

func (p *partition) add(m kmer.Kmer, delta uint32) {
	key := uint64(m)<<1 | 1
	i := kmer.Mix(uint64(m)) & p.mask
	for {
		switch p.keys[i] {
		case key:
			p.counts[i] += delta
			return
		case 0:
			if 3*(p.n+1) > 2*len(p.keys) {
				p.resize(2 * len(p.keys))
				p.add(m, delta)
				return
			}
			p.keys[i], p.counts[i] = key, delta
			p.n++
			return
		}
		i = (i + 1) & p.mask
	}
}

func (p *partition) get(m kmer.Kmer) uint32 {
	key := uint64(m)<<1 | 1
	i := kmer.Mix(uint64(m)) & p.mask
	for {
		switch p.keys[i] {
		case key:
			return p.counts[i]
		case 0:
			return 0
		}
		i = (i + 1) & p.mask
	}
}

// resize re-places every key into a table of the given power-of-two
// slot count.
func (p *partition) resize(slots int) {
	keys, counts := p.keys, p.counts
	p.keys = make([]uint64, slots)
	p.counts = make([]uint32, slots)
	p.mask = uint64(slots - 1)
	for i, key := range keys {
		if key == 0 {
			continue
		}
		j := kmer.Mix(key>>1) & p.mask
		for p.keys[j] != 0 {
			j = (j + 1) & p.mask
		}
		p.keys[j], p.counts[j] = key, counts[i]
	}
}

// appendEntries appends the partition's entries with count ≥ minCount.
func (p *partition) appendEntries(out []Entry, minCount int) []Entry {
	for i, key := range p.keys {
		if key != 0 && int(p.counts[i]) >= minCount {
			out = append(out, Entry{kmer.Kmer(key >> 1), p.counts[i]})
		}
	}
	return out
}

// forEachPart runs fn on every partition index, handing whole
// partitions to workers goroutines from an atomic counter.
func forEachPart(workers int, fn func(p int)) {
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for p := int(next.Add(1) - 1); p < 1<<partBits; p = int(next.Add(1) - 1) {
				fn(p)
			}
		}()
	}
	wg.Wait()
}

// Frozen is an immutable, flat, open-addressing snapshot of a
// CountTable with one interleaved key/count slot array. Get is a
// wait-free linear probe that touches one cache line per step, which
// is what the Chrysalis welding loops need: weldSupport issues one or
// two Get probes per window position across every candidate weld.
// Freeze once after counting completes, then share the Frozen table
// across any number of reader goroutines.
type Frozen struct {
	K       int
	entries []frozenEntry
	mask    uint64
	shift   uint // 64 - log2(len(entries)): Fibonacci hash takes top bits
	n       int
}

// frozenEntry interleaves the probe key with its count so a Get costs
// exactly one cache line per probe step. key is (kmer<<1)|1 — the low
// tag bit distinguishes the all-A k-mer (which packs to 0) from an
// empty slot; k ≤ 31 leaves room for the shift.
type frozenEntry struct {
	key   uint64
	count uint32
}

// newFrozen allocates an empty snapshot sized for distinct k-mers at
// ≤ 2/3 load.
func newFrozen(k, distinct int) *Frozen {
	slots := 16
	shift := uint(60)
	for slots < 3*distinct/2+1 {
		slots <<= 1
		shift--
	}
	return &Frozen{
		K:       k,
		entries: make([]frozenEntry, slots),
		mask:    uint64(slots - 1),
		shift:   shift,
		n:       distinct,
	}
}

// insert places a tagged key known to be absent.
func (f *Frozen) insert(key uint64, count uint32) {
	j := ((key >> 1) * fibMul) >> f.shift
	for f.entries[j].key != 0 {
		j = (j + 1) & f.mask
	}
	f.entries[j] = frozenEntry{key, count}
}

// Freeze snapshots the table into a Frozen flat table. Call it only
// after counting has completed.
func (t *CountTable) Freeze() *Frozen {
	f := newFrozen(t.K, t.Distinct())
	for p := range t.parts {
		part := &t.parts[p]
		for i, key := range part.keys {
			if key != 0 {
				f.insert(key, part.counts[i])
			}
		}
	}
	return f
}

// FrozenFromEntries builds a Frozen table directly from (k-mer, count)
// pairs — the constructor the sharded k-mer layer uses for owner-rank
// shards and remote-answer caches, which materialise partial tables
// without ever holding a full CountTable. Entries must name distinct
// k-mers; probe behaviour (and therefore Get results) is identical to
// a Freeze of a table holding the same pairs.
func FrozenFromEntries(k int, entries []Entry) *Frozen {
	f := newFrozen(k, len(entries))
	for _, e := range entries {
		f.insert(uint64(e.Kmer)<<1|1, e.Count)
	}
	return f
}

// ForEach calls fn for every (k-mer, count) pair in slot order —
// deterministic for a deterministically built snapshot. The sharding
// layer uses it to carve a full source table into owner shards.
func (f *Frozen) ForEach(fn func(m kmer.Kmer, count uint32)) {
	for _, e := range f.entries {
		if e.key != 0 {
			fn(kmer.Kmer(e.key>>1), e.count)
		}
	}
}

// MemBytes returns the resident size of the snapshot's backing array —
// the per-rank memory term the sharding layer meters.
func (f *Frozen) MemBytes() int64 {
	return int64(len(f.entries)) * 16 // frozenEntry: 8-byte key + padded 4-byte count
}

// fibMul is 2^64/phi — Fibonacci hashing. One multiply spreads the
// k-mer's low-entropy bits into the top bits that index the table.
const fibMul = 0x9e3779b97f4a7c15

// Get returns the count of m. Wait-free; safe for concurrent readers.
func (f *Frozen) Get(m kmer.Kmer) uint32 {
	key := uint64(m)<<1 | 1
	i := (uint64(m) * fibMul) >> f.shift
	for {
		e := f.entries[i]
		if e.key == key {
			return e.count
		}
		if e.key == 0 {
			return 0
		}
		i = (i + 1) & f.mask
	}
}

// Distinct returns the number of distinct k-mers in the snapshot.
func (f *Frozen) Distinct() int { return f.n }

// Total returns the total number of occurrences in the snapshot.
func (f *Frozen) Total() uint64 {
	var n uint64
	for _, e := range f.entries {
		if e.key != 0 {
			n += uint64(e.count)
		}
	}
	return n
}

// Entry is one (k-mer, count) pair in a dump.
type Entry struct {
	Kmer  kmer.Kmer
	Count uint32
}

// Entries snapshots the table as a slice filtered by minCount, sorted
// by k-mer value for deterministic output. Partitions are in k-mer
// order, so each is filtered and sorted into its own segment of the
// result in parallel.
func (t *CountTable) Entries(minCount int) []Entry {
	var offs [1<<partBits + 1]int
	workers := runtime.GOMAXPROCS(0)
	forEachPart(workers, func(p int) {
		n := 0
		part := &t.parts[p]
		for i, key := range part.keys {
			if key != 0 && int(part.counts[i]) >= minCount {
				n++
			}
		}
		offs[p+1] = n
	})
	for p := 0; p < 1<<partBits; p++ {
		offs[p+1] += offs[p]
	}
	out := make([]Entry, offs[1<<partBits])
	forEachPart(workers, func(p int) {
		seg := t.parts[p].appendEntries(out[offs[p]:offs[p]:offs[p+1]], minCount)
		slices.SortFunc(seg, func(a, b Entry) int { return cmp.Compare(a.Kmer, b.Kmer) })
	})
	return out
}

// FromEntries rebuilds a count table from dumped entries — the bridge
// from external counters (dsk's disk-partitioned pass, LoadFile) into
// the stages that consume a CountTable. Each partition is sized for
// its entries up front; a k-mer listed twice has its counts summed.
func FromEntries(k int, entries []Entry) *CountTable {
	t := NewCountTable(k)
	var sizes [1 << partBits]int
	for _, e := range entries {
		sizes[t.partOf(e.Kmer)]++
	}
	for p, n := range sizes {
		slots := minPartSlots
		for 2*slots < 3*n {
			slots <<= 1
		}
		if slots > minPartSlots {
			t.parts[p].resize(slots)
		}
	}
	for _, e := range entries {
		t.Add(e.Kmer, e.Count)
	}
	return t
}

// Count tallies the k-mers of every record into a fresh table.
func Count(recs []seq.Record, opt Options) (*CountTable, error) {
	return countRecords(recs, opt, batchKmers)
}

// countRecords is Count with the batch size as a parameter, so tests
// can force many small batches.
func countRecords(recs []seq.Record, opt Options, batch int) (*CountTable, error) {
	return countWith(opt, batch, len(recs),
		func(i int) int { return len(recs[i].Seq) },
		func(lo, hi int, c *cutter) {
			for i := lo; i < hi; i++ {
				it := kmer.NewIterator(recs[i].Seq, c.k)
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

// batchKmers bounds the k-mers cut per batch across all workers, so
// the cut buffers stay near 1 MiB whatever the core count.
const batchKmers = 1 << 17

// cutter holds one worker's k-mers of the current batch, bucketed by
// destination partition.
type cutter struct {
	t         *CountTable
	k         int
	canonical bool
	bufs      [1 << partBits][]kmer.Kmer
}

func (c *cutter) add(m kmer.Kmer) {
	if c.canonical {
		m, _ = m.Canonical(c.k)
	}
	p := c.t.partOf(m)
	c.bufs[p] = append(c.bufs[p], m)
}

// countWith is the partition-then-count loop Count and CountPacked
// share. The n reads go in batches of about batch k-mers, each split
// into one contiguous read range per worker by the upper bound
// len-K+1 (readLen gives a read's length). In the cut phase, worker w
// resets its buffers and cut appends the k-mers of its range to them.
// In the count phase, workers claim whole partitions and add every
// worker's buffer for that partition, so no partition is shared and no
// lock is taken. The static split keeps the table's slot layout
// deterministic for a given thread count.
func countWith(opt Options, batch, n int, readLen func(i int) int, cut func(lo, hi int, c *cutter)) (*CountTable, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	t := NewCountTable(opt.K)
	workers := opt.Threads
	cutters := make([]cutter, workers)
	for w := range cutters {
		cutters[w] = cutter{t: t, k: opt.K, canonical: opt.Canonical}
	}
	bounds := make([]int, workers+1)
	per := max(1, batch/workers)
	for i := 0; i < n; {
		bounds[0] = i
		for w := 1; w <= workers; w++ {
			for got := 0; i < n && got < per; i++ {
				got += max(0, readLen(i)-opt.K+1)
			}
			bounds[w] = i
		}
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := range cutters {
			go func() {
				defer wg.Done()
				c := &cutters[w]
				for p := range c.bufs {
					c.bufs[p] = c.bufs[p][:0]
				}
				cut(bounds[w], bounds[w+1], c)
			}()
		}
		wg.Wait()
		forEachPart(workers, func(p int) {
			part := &t.parts[p]
			for w := range cutters {
				for _, m := range cutters[w].bufs[p] {
					part.add(m, 1)
				}
			}
		})
	}
	return t, nil
}

// Dump writes the table as "count<TAB>kmer" lines (decreasing count,
// then increasing k-mer), the text format Inchworm parses.
func Dump(w io.Writer, t *CountTable, minCount int) error {
	entries := t.Entries(minCount)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Kmer < entries[j].Kmer
	})
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, e := range entries {
		if _, err := fmt.Fprintf(bw, "%d\t%s\n", e.Count, e.Kmer.Decode(t.K)); err != nil { // ascii-ok: dump-file boundary
			return err
		}
	}
	return bw.Flush()
}

// DumpFile writes the dump to path.
func DumpFile(path string, t *CountTable, minCount int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Dump(f, t, minCount); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load parses a dump produced by Dump back into entries. k must match
// the dump's k-mer length.
func Load(r io.Reader, k int) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []Entry
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("jellyfish: dump line %d: want 2 fields, got %d", lineno, len(fields))
		}
		c, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("jellyfish: dump line %d: bad count %q", lineno, fields[0])
		}
		if len(fields[1]) != k {
			return nil, fmt.Errorf("jellyfish: dump line %d: k-mer length %d, want %d", lineno, len(fields[1]), k)
		}
		m, ok := kmer.Encode([]byte(fields[1]), k)
		if !ok {
			return nil, fmt.Errorf("jellyfish: dump line %d: invalid k-mer %q", lineno, fields[1])
		}
		out = append(out, Entry{m, uint32(c)})
	}
	return out, sc.Err()
}

// LoadFile reads a dump file.
func LoadFile(path string, k int) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, k)
}
