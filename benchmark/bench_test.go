package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"retrasyn/internal/ldp"
)

// tiny shrinks a workload to a population that replays in well under a
// second, keeping its system configuration.
func tiny(t *testing.T, w workload) config {
	t.Helper()
	s := w.shape
	s.scale = 0.05
	return config{workload: w.name, seed: 3, seconds: 0, stateDir: t.TempDir(), shape: s}
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, benchmark has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, benchmark has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndDefs)
	same("per_layer", b.PerLayer, perLayer)
}

// TestTinyWorkloadsPrintEveryMetric runs all three workloads at tiny scale,
// untraced and traced, and checks that every named metric is printed with
// its unit and that the output checks pass.
func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tiny(t, w)
			cfg.trace = traced
			var out bytes.Buffer
			res, err := run(w, cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: result %+v", w.name, traced, res)
			}
			want := endToEndDefs
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, d.Name, m, d.Unit)
				}
			}
			if !strings.HasPrefix(out.String(), "record {") {
				t.Errorf("%s: no record line in %q", w.name, out.String())
			}
			if traced && res.Metrics["round.wall_ms"].Value <= 0 {
				t.Errorf("%s: traced pass broke down no rounds", w.name)
			}
		}
	}
}

func TestChangedDigestFailsTheRun(t *testing.T) {
	w, _ := workloadByName("drift-relayout")
	cfg := tiny(t, w)
	if res, err := run(w, cfg, &bytes.Buffer{}); err != nil || !res.Correct {
		t.Fatalf("first run: %+v, %v", res, err)
	}
	blob, err := json.Marshal([]stored{{Digest: "0000000000000000"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.storedFile(), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := run(w, cfg, &bytes.Buffer{})
	if err == nil || res.Correct {
		t.Fatalf("run against a changed stored digest passed: %+v", res)
	}
}

func TestUnbalancedLedgerFailsTheRun(t *testing.T) {
	sent := ledger{presence: 10, reports: 4, rounds: 2}
	if err := checkLedger(sent, sent); err != nil {
		t.Fatal(err)
	}
	for _, got := range []ledger{{9, 4, 2}, {10, 5, 2}, {10, 4, 1}} {
		if checkLedger(sent, got) == nil {
			t.Errorf("ledger %+v against %+v balanced", got, sent)
		}
	}

	// In process: a replay that fed one event fewer than the input holds.
	w, _ := workloadByName("sj-inproc")
	cfg := tiny(t, w)
	in, err := w.prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bootFramework(w.kind, in, cfg, newOps(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.replay(&pass{}); err != nil {
		t.Fatal(err)
	}
	sys.fed--
	if _, err := sys.outcome(); err == nil {
		t.Fatal("outcome accepted a replay that lost an event")
	}
}

func TestFailedCallIsCounted(t *testing.T) {
	w, _ := workloadByName("sj-http")
	cfg := tiny(t, w)
	in, err := w.prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOps()
	sys, err := bootHTTP(in, cfg, o, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if err := sys.proto.finalize(0, 5, 10); err == nil {
		t.Fatal("Finalize for a timestamp that was never planned succeeded")
	}
	gw := o.layers["gateway"]
	if gw.attempted.Load() != 1 || gw.failed.Load() != 1 {
		t.Errorf("gateway calls: %d attempted, %d failed; want 1 and 1", gw.attempted.Load(), gw.failed.Load())
	}
	if o.failed() != 1 {
		t.Errorf("%d failed calls in total, want 1", o.failed())
	}
}

// TestReleaseIndependentOfGatewayCount checks that the device reports, and
// so the release digest, do not depend on how many gateways (CPUs) the
// host has.
func TestReleaseIndependentOfGatewayCount(t *testing.T) {
	w, _ := workloadByName("sj-http")
	cfg := tiny(t, w)
	in, err := w.prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, n := range []int{1, 3} {
		in.shardRounds(n)
		d, err := directDigest(in, cfg, newOps())
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if digests[0] != digests[1] {
		t.Errorf("release digest %s with 1 gateway, %s with 3", digests[0], digests[1])
	}
}

func TestPutPackedMatchesWireBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	o := ldp.MustOUE(328, 1)
	row := make(ldp.PackedReport, ldp.PackedWords(328))
	for i := 0; i < 50; i++ {
		clear(row)
		o.PerturbPackedInto(rng, rng.IntN(328), row)
		got := make([]byte, ldp.PackedBytes(328))
		putPacked(got, row)
		if !bytes.Equal(got, row.Bytes(328)) {
			t.Fatalf("putPacked %x, PackedReport.Bytes %x", got, row.Bytes(328))
		}
	}
}

func TestInputCacheRoundTrip(t *testing.T) {
	w, _ := workloadByName("sj-inproc")
	cfg := tiny(t, w)
	gen, err := w.prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := w.prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gen.source != "generated" || cached.source != "cache" {
		t.Fatalf("sources %q then %q", gen.source, cached.source)
	}
	if digest(gen.orig) != digest(cached.orig) || gen.events != cached.events {
		t.Error("cached input differs from the generated one")
	}
}
