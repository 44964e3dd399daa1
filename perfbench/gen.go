package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"opmap/internal/dataset"
	"opmap/internal/workload"
)

// Input shape shared by every workload: the paper's call log widened to
// 80 categorical attributes (5 planted + 75 six-valued noise) plus two
// class-dependent continuous columns, so entropy-MDLP has real cuts to
// find. 82 condition attributes and the Disposition class in all.
const (
	numPhones     = 8
	noiseAttrs    = 75
	batchRows     = 100
	signalAttr    = "Signal-dBm"
	durationAttr  = "Call-Duration-s"
	classAttr     = "Disposition"
	csvFile       = "calls.csv"
	batchesFile   = "batches.json"
	planFile      = "plan.json"
	ingestSeedXor = 0x5eed1
	// sparseEvery makes every fourth ingest batch sparse. A sparse batch
	// applies in about a fifth of a full batch's time, so at one in two
	// the ingest median would sit between the two modes and jump from
	// seed to seed.
	sparseEvery = 4
)

// plantedAttrs are the call-log attributes that carry the generator's
// planted structure. Sparse ingest rows keep only these, the continuous
// columns and the class.
var plantedAttrs = map[string]bool{
	"Phone-Model": true, "Time-of-Call": true, "Signal-Band": true,
	"Terrain": true, "Phone-Hardware-Version": true,
}

// genConfig sizes one generated input set.
type genConfig struct {
	Workload string
	Seed     int64
	Rows     int // rows in the CSV
	Requests int // requests in the plan
}

// genMain is the "gen" subcommand: it writes the CSV, the ingest
// batches and the request plan for one workload and seed into -dir. It
// runs in its own process so the generator's heap never shares the
// measured program's GC.
func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var cfg genConfig
	dir := fs.String("dir", "", "output directory")
	fs.StringVar(&cfg.Workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.Rows, "rows", 0, "CSV rows")
	fs.IntVar(&cfg.Requests, "requests", 0, "requests in the plan")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || cfg.Rows <= 0 || cfg.Requests <= 0 {
		return fmt.Errorf("gen: -dir, -rows and -requests are required")
	}
	return generate(*dir, cfg)
}

// generate writes every input file for cfg into dir.
func generate(dir string, cfg genConfig) error {
	wl, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("gen: unknown workload %q", cfg.Workload)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	header, rows, err := callRows(cfg.Seed, cfg.Rows)
	if err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, csvFile), header, rows); err != nil {
		return err
	}
	sch := schemaOf(header, rows)
	var batches [][][]string
	if n := wl.ingestBatches(cfg.Requests); n > 0 {
		_, extra, err := callRows(cfg.Seed^ingestSeedXor, n*batchRows)
		if err != nil {
			return err
		}
		for b := 0; b < n; b++ {
			batch := extra[b*batchRows : (b+1)*batchRows]
			if b%sparseEvery == sparseEvery-1 {
				sparsify(header, batch)
			}
			batches = append(batches, batch)
		}
	}
	if err := writeJSON(filepath.Join(dir, batchesFile), batches); err != nil {
		return err
	}
	plan := wl.makePlan(rand.New(rand.NewSource(cfg.Seed)), sch, cfg.Requests)
	return writeJSON(filepath.Join(dir, planFile), plan)
}

// callRows generates the call log as text rows: the categorical columns
// of workload.CallLog, then the two continuous columns, then the class.
func callRows(seed int64, n int) ([]string, [][]string, error) {
	ds, _, err := workload.CallLog(workload.CallLogConfig{
		Seed: seed, Records: n, NumPhones: numPhones, NoiseAttrs: noiseAttrs,
	})
	if err != nil {
		return nil, nil, err
	}
	classIdx := ds.ClassIndex()
	var header []string
	for i := 0; i < ds.NumAttrs(); i++ {
		if i != classIdx {
			header = append(header, ds.Attr(i).Name)
		}
	}
	header = append(header, signalAttr, durationAttr, classAttr)
	rng := rand.New(rand.NewSource(seed ^ 0x51c0))
	rows := make([][]string, n)
	for r := range rows {
		row := make([]string, 0, len(header))
		for i := 0; i < ds.NumAttrs(); i++ {
			if i != classIdx {
				row = append(row, ds.Label(r, i))
			}
		}
		class := ds.Label(r, classIdx)
		dbm, secs := continuousFor(rng, class)
		row = append(row, strconv.FormatFloat(dbm, 'f', 1, 64), strconv.FormatFloat(secs, 'f', 1, 64), class)
		rows[r] = row
	}
	return header, rows, nil
}

// continuousFor draws a row's signal strength and call duration from
// distributions that depend on its class: dropped calls sit on weaker
// signal and end early, setup failures last seconds.
func continuousFor(rng *rand.Rand, class string) (dbm, secs float64) {
	switch class {
	case workload.ClassDropped:
		dbm = -100 + 6*rng.NormFloat64()
		secs = 60 * rng.ExpFloat64()
	case workload.ClassSetupFailed:
		dbm = -94 + 7*rng.NormFloat64()
		secs = 5 * rng.Float64()
	default:
		dbm = -84 + 8*rng.NormFloat64()
		secs = 180 * rng.ExpFloat64()
	}
	return math.Max(-130, math.Min(-40, dbm)), math.Min(secs, 3600)
}

// sparsify blanks every field of the batch's rows except the planted
// attributes, the continuous columns and the class, so the batch
// touches only those attributes and cached results over the others
// survive it.
func sparsify(header []string, batch [][]string) {
	for _, row := range batch {
		for i, name := range header {
			if !plantedAttrs[name] && name != signalAttr && name != durationAttr && name != classAttr {
				row[i] = dataset.MissingLabel
			}
		}
	}
}

// schema is what the plan generator needs to know about the data: the
// categorical attributes with their value labels, in header order, and
// every condition attribute name.
type schema struct {
	Attrs  []string            // condition attributes, header order
	Values map[string][]string // categorical attribute → distinct labels, first-seen order
	Cat    []string            // categorical condition attributes, header order
	Noise  []string            // noise attributes (Param-XX)
}

func schemaOf(header []string, rows [][]string) schema {
	sch := schema{Values: map[string][]string{}}
	for i, name := range header {
		if name == classAttr {
			continue
		}
		sch.Attrs = append(sch.Attrs, name)
		if name == signalAttr || name == durationAttr {
			continue
		}
		seen := map[string]bool{}
		for _, row := range rows {
			if v := row[i]; v != dataset.MissingLabel && !seen[v] {
				seen[v] = true
				sch.Values[name] = append(sch.Values[name], v)
			}
		}
		sch.Cat = append(sch.Cat, name)
		if !plantedAttrs[name] {
			sch.Noise = append(sch.Noise, name)
		}
	}
	return sch
}

func writeCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := csv.NewWriter(bw)
	if err := cw.Write(header); err != nil {
		f.Close()
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
