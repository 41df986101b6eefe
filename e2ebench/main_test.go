package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"sort"
	"testing"

	trinity "gotrinity"
	"gotrinity/internal/validate"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(xs []struct{ Name string }) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload's configuration on the Tiny preset,
// untraced and traced, and checks that the run passes its gates and
// reports exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if got, want := names(s.Workloads), workloadNames(); !equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := bench(options{workload: w, profile: trinity.TinyProfile, seed: 1, trace: traced, tmp: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted < minReps {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d %v", w.name, traced,
					rep.result.Correct, rep.result.Failed, rep.result.Attempted, rep.problems)
			}
			want := names(s.EndToEnd)
			if traced {
				want = names(s.PerLayer)
			}
			var got []string
			for name := range rep.result.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !equal(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			if traced {
				m := rep.result.Metrics
				sum := m["trace.unattributed_s"].Value
				for _, l := range layers {
					sum += m[l+".wall_s"].Value
				}
				if total := m["trace.total_s"].Value; math.Abs(sum-total) > 1e-9*total {
					t.Errorf("%s: layer spans plus unattributed time %v, traced total %v", w.name, sum, total)
				}
			}
		}
	}
}

// TestDigestGate checks that the gate counts errors and disagreeing
// transcripts as failed assemblies.
func TestDigestGate(t *testing.T) {
	g := &gate{}
	g.check("first", "aa", nil)
	g.check("same", "aa", nil)
	g.check("other", "bb", nil)
	g.check("error", "", errors.New("boom"))
	if g.attempted != 4 || g.failed != 2 || len(g.problems) != 2 {
		t.Fatalf("attempted %d failed %d problems %v", g.attempted, g.failed, g.problems)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFullLengthMatchesValidate pins the length filter fullLength
// applies: it must count what validate.FullLengthReconstruction counts
// on the whole sets.
func TestFullLengthMatchesValidate(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 3; seed++ {
		d := generate(trinity.TinyProfile, seed)
		res, err := trinity.Assemble(d.Reads, trinity.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := res.TranscriptRecords()
		want := validate.FullLengthReconstruction(ts, d.Reference, minCover, minIdentity).Isoforms
		if got := fullLength(ts, d.Reference); got != want {
			t.Errorf("seed %d: fullLength %d, validate %d", seed, got, want)
		}
		total += want
	}
	if total == 0 {
		t.Fatal("no isoform reconstructed full length; the comparison tests nothing")
	}
}
