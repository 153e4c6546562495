package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestWorkloadsMatchBenchmarkFile checks that every workload is declared,
// with its fixed open-loop rate in the recorded reason.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(b.Workloads), len(scenarios))
	}
	for _, w := range b.Workloads {
		sc := findScenario(w.Name)
		if sc == nil {
			t.Fatalf("BENCHMARK.json workload %q is unknown", w.Name)
		}
		if rate := fmt.Sprintf("%.0f req/s", sc.rate); !strings.Contains(w.Why, rate) {
			t.Errorf("%s: why %q does not record the open-loop rate %s", w.Name, w.Why, rate)
		}
	}
}

// TestMetricsMatchBenchmarkFile runs both modes briefly and checks they
// print exactly the declared metrics, with the declared units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	printed := func(res *result) []string {
		var out []string
		for _, m := range res.metrics {
			out = append(out, m.name+" "+m.unit)
		}
		sort.Strings(out)
		return out
	}
	newRun := func() *run {
		return &run{sc: findScenario("durable-session"), seed: 1, seconds: 1, conns: 2,
			work: t.TempDir(), logger: log.New(io.Discard, "", 0)}
	}
	e2e, err := newRun().measure()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := printed(e2e), declared(b.EndToEnd); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	layers, err := newRun().traced(t.TempDir() + "/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := printed(layers), declared(b.PerLayer); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if !e2e.correct || !layers.correct {
		t.Error("a short run was not correct")
	}
}

// TestTracedLayers runs every workload traced, briefly, and checks that
// each layer it exercises reports a measurement.
func TestTracedLayers(t *testing.T) {
	common := []string{"loadgen.capacity_rps", "loadgen.read_p99_ms", "loadgen.client_self_us", "loadgen.read_samples", "soap.req_bytes", "soap.resp_bytes",
		"rpc.server_us", "rpc.kernel_self_us", "rpc.middleware_self_us", "rpc.decode_fast_frac",
		"go.allocs_per_req", "go.bytes_per_req"}
	own := map[string][]string{
		"fig1-generate": {"batchscript.handler_us"},
		"discovery-gateway": {"gateway.self_us", "gateway.forward_us", "gateway.forwards_per_req",
			"gateway.backend_share_max", "uddi.read_handler_us", "rpc.cache_hit_frac"},
		"durable-session": {"contextmgr.read_handler_p99_us", "contextmgr.write_handler_us", "loadgen.write_samples",
			"wal.append_p50_us", "wal.append_p99_us", "wal.bytes_per_append", "wal.replay_ms"},
	}
	for _, base := range scenarios {
		sc := *base
		sc.warmup = 500
		x := &run{sc: &sc, seed: 3, seconds: 1, conns: 2, work: t.TempDir(), logger: log.New(io.Discard, "", 0)}
		if sc.prepare != nil {
			if err := sc.prepare(x); err != nil {
				t.Fatal(err)
			}
		}
		res, err := x.traced(t.TempDir() + "/spans.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, m := range res.metrics {
			got[m.name] = m.value
		}
		for _, name := range append(common, own[sc.name]...) {
			if got[name] <= 0 {
				t.Errorf("%s: %s = %v, want a measurement", sc.name, name, got[name])
			}
		}
		if !res.correct {
			t.Errorf("%s: traced run not correct", sc.name)
		}
	}
}
