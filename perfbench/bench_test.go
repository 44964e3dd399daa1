package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Reduced size for tests: large enough that every workload's checks
// pass, small enough that a run takes seconds.
const (
	testRows     = 30000
	testRequests = 31
)

func genInputs(t *testing.T, workload string, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	cfg := genConfig{Workload: workload, Seed: seed, Rows: testRows, Requests: testRequests}
	if err := generate(filepath.Join(dir, "inputs"), cfg); err != nil {
		t.Fatal(err)
	}
	return dir
}

// workCounters runs one traced pass and returns the exact work it
// caused, summed over the request sequence.
func workCounters(t *testing.T, wl *benchWorkload, in *inputs, tag string) map[string]float64 {
	t.Helper()
	p, err := runPass(context.Background(), wl, in, 1, newTracer(), newProbe(), tag)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.failed(); n != 0 {
		t.Fatalf("%s: %d failed operations: %v", wl.name, n, p.failures)
	}
	got := map[string]float64{}
	for _, o := range p.outs {
		for _, s := range []int{sScans, sCubesBuilt, sCubeHits, sCubeMisses, sCubeEvictions,
			sResultHits, sResultInval, sDrillNodes, sFsyncs} {
			got[seriesNames[s]] += o.delta[s]
		}
	}
	return got
}

// TestWorkCountersRepeat: two runs of each workload under one seed
// cause identical work, counter by counter, and the counters show each
// workload stressing what it was chosen for.
func TestWorkCountersRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			wl := workloads[name]
			in, err := loadInputs(genInputs(t, name, 7))
			if err != nil {
				t.Fatal(err)
			}
			a := workCounters(t, wl, in, "a")
			b := workCounters(t, wl, in, "b")
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("work counters differ between runs of one seed:\n%v\n%v", a, b)
			}
			t.Logf("%v", a)
			switch name {
			case "eager-resident":
				if a["scans"] != 0 || a["result_hits"] != 0 {
					t.Errorf("eager-resident requests scanned %v times and hit the result cache %v times, want 0 and 0", a["scans"], a["result_hits"])
				}
			case "ingest-interleaved":
				if a["result_hits"] == 0 || a["result_invalidations"] == 0 || a["wal_fsyncs"] != float64(wl.ingestBatches(testRequests)) {
					t.Errorf("ingest-interleaved: want result hits and invalidations > 0 and one WAL record per batch, got %v", a)
				}
			case "lazy-evicting":
				if a["scans"] == 0 || a["drill_nodes"] == 0 {
					t.Errorf("lazy-evicting: want cube scans and drill nodes, got %v", a)
				}
			}
		})
	}
}

// TestSeedChangesSequence: the seed alone fixes the inputs and the
// request sequence.
func TestSeedChangesSequence(t *testing.T) {
	read := func(dir string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, "inputs", planFile))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, name := range workloadNames() {
		a, b, c := genInputs(t, name, 7), genInputs(t, name, 7), genInputs(t, name, 8)
		if !bytes.Equal(read(a), read(b)) {
			t.Errorf("%s: one seed gave two request sequences", name)
		}
		if bytes.Equal(read(a), read(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
		for _, f := range []string{csvFile, batchesFile} {
			x, _ := os.ReadFile(filepath.Join(a, "inputs", f))
			y, _ := os.ReadFile(filepath.Join(b, "inputs", f))
			if !bytes.Equal(x, y) {
				t.Errorf("%s: one seed gave two different %s", name, f)
			}
		}
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json names exactly the workloads
// and metrics this program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range doc.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, []string{"eager-resident", "lazy-evicting", "ingest-interleaved"}) || len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v do not match %v", wls, workloadNames())
	}
	units := map[string]string{}
	var e2e []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, endToEndNames)
	}
	p := &pass{setups: []float64{1}, speeds: []float64{1}, speed: 1, seq: newCanary(), wall: 1, rssMiB: 1}
	for name, m := range endToEnd(workloads["eager-resident"], p) {
		if units[name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, program prints %q", name, units[name], m.Unit)
		}
	}
	var want []string
	for _, s := range layerSpecs {
		want = append(want, s.name)
		units[s.name] = s.unit
	}
	for _, name := range endToEndNames {
		want = append(want, overheadPrefix+name)
		units[overheadPrefix+name] = units[name]
	}
	var got []string
	for _, m := range doc.PerLayer {
		got = append(got, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, program prints %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}
