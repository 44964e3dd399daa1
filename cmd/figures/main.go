// Command figures regenerates every table and figure of the paper's
// evaluation (Section V) at a configurable scale and prints the same
// rows/series the paper reports. Absolute times differ from the paper's
// 2008 hardware; the shapes (linear vs superlinear, interactivity) are
// the reproduction target. See EXPERIMENTS.md for recorded runs.
//
// Usage:
//
//	figures                         # everything at the default scale
//	figures -only fig9,fig10        # selected experiments
//	figures -records 2000000        # paper-scale record count (slow)
//	figures -only csvload -records 2000000 -attrs 160
//	                                # load that scale from a CSV file
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"opmap/internal/baseline"
	"opmap/internal/car"
	"opmap/internal/compare"
	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/gi"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/stats"
	"opmap/internal/visual"
	"opmap/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		only      = flag.String("only", "", "comma-separated subset: table1,boundaries,fig5,fig6,fig7,fig8,fig9,fig10,fig11,casestudy,ablations,csvload (csvload only when named)")
		records   = flag.Int("records", 200000, "records behind Fig. 9/10 (paper: 2,000,000)")
		fig11Base = flag.Int("fig11base", 250000, "base records for Fig. 11 duplication sweep (paper: 2,000,000)")
		attrs     = flag.Int("attrs", 160, "maximum attributes for Fig. 9/10/11 (paper: 160)")
		seed      = flag.Int64("seed", 1, "PRNG seed")
	)
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	run := func(key string) bool { return len(want) == 0 || want[key] }

	if run("table1") {
		table1()
	}
	if run("boundaries") {
		boundaries()
	}
	if run("fig5") || run("fig6") || run("fig7") || run("fig8") || run("casestudy") {
		caseStudy(*seed, run)
	}
	if run("fig9") {
		fig9(*seed, *records, *attrs)
	}
	if run("fig10") {
		fig10(*seed, *records, *attrs)
	}
	if run("fig11") {
		fig11(*seed, *fig11Base, *attrs)
	}
	if run("ablations") {
		ablations(*seed)
	}
	// csvload writes records × attrs to a temporary CSV, so it runs only
	// when asked for by name.
	if want["csvload"] {
		csvload(*seed, *records, *attrs)
	}
}

// ablations prints the DESIGN.md §5 ablation numbers as a text report
// (the bench harness measures the same things under testing.B).
func ablations(seed int64) {
	header("Ablations — DESIGN.md §5")
	ds, gt, err := workload.CallLog(workload.CaseStudyConfig(seed, 50000))
	if err != nil {
		log.Fatal(err)
	}
	src := pinned(ds)
	attr := ds.AttrIndex(gt.PhoneAttr)
	v1, _ := ds.Column(attr).Dict.Lookup(gt.GoodPhone)
	v2, _ := ds.Column(attr).Dict.Lookup(gt.BadPhone)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	in := compare.Input{Attr: attr, V1: v1, V2: v2, Class: cls}
	cmp := compare.NewSource(src)

	timeIt := func(name string, reps int, f func() error) time.Duration {
		if err := f(); err != nil { // warm-up
			log.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := f(); err != nil {
				log.Fatal(err)
			}
		}
		per := time.Since(start) / time.Duration(reps)
		fmt.Printf("  %-34s %v\n", name, per)
		return per
	}

	fmt.Println("Comparison cost (cube-backed, 50k records behind the cubes):")
	timeIt("with CI (paper default)", 100, func() error {
		_, err := cmp.Compare(in, compare.Options{})
		return err
	})
	timeIt("without CI", 100, func() error {
		_, err := cmp.Compare(in, compare.Options{DisableCI: true})
		return err
	})
	timeIt("Wilson intervals", 100, func() error {
		_, err := cmp.Compare(in, compare.Options{Method: compare.Wilson})
		return err
	})
	fmt.Println("Cube vs raw scan (the paper's V.C data-size independence):")
	cubeT := timeIt("cube-backed compare", 100, func() error {
		_, err := cmp.Compare(in, compare.Options{})
		return err
	})
	scanT := timeIt("raw scan compare (50k records)", 5, func() error {
		_, err := compare.Scan(context.Background(), ds, nil, in, compare.Options{})
		return err
	})
	big := ds.Duplicate(2)
	scan2T := timeIt("raw scan compare (100k records)", 5, func() error {
		_, err := compare.Scan(context.Background(), big, nil, in, compare.Options{})
		return err
	})
	fmt.Printf("  scan/cube ratio %.0f×; scan 2× records grows %.2f× — cube time is size-independent\n",
		float64(scanT)/float64(cubeT), float64(scan2T)/float64(scanT))

	fmt.Println("Completeness problem (Section III.A):")
	rep, err := baseline.Completeness(ds, baseline.TreeOptions{MaxDepth: 2}, car.Options{MaxConditions: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  decision-tree rules %d vs exhaustive CAR rules %d (coverage %.2f%%)\n",
		rep.TreeRules, rep.CARRules, 100*rep.CoverageRatio)
	cba, err := baseline.BuildCBA(ds, baseline.CBAOptions{MinSupport: 0.005})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  CBA keeps %d of %d candidate rules (%.2f%%) at %.1f%% accuracy\n",
		len(cba.Rules), cba.TotalCandidates, 100*cba.UsageRatio(), 100*cba.Accuracy(ds))

	// The store's size is the quantified form of the paper's
	// combinatorial-explosion concern (Section III.B): the two-condition
	// cap keeps the rules it represents tractable.
	var cells, bytes int64
	cubes := src.ResidentCubes()
	for _, c := range cubes {
		cells += c.RuleCount()
		bytes += c.SizeBytes()
	}
	fmt.Printf("Cube store size: %d cubes, %d cells (rules), ≈%.1f MiB counts\n",
		len(cubes), cells, float64(bytes)/(1<<20))
}

// pinned counts every 1-D and pair cube of ds and pins them in an
// engine: the paper's offline precomputation, as an eager session
// serves it.
func pinned(ds *dataset.Dataset) *engine.LazySource {
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := src.PinAll(context.Background()); err != nil {
		log.Fatal(err)
	}
	return src
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

// table1 prints Table I: the z values.
func table1() {
	header("Table I — z value table")
	fmt.Println("Confidence level    z")
	for _, level := range []stats.ConfidenceLevel{stats.Level90, stats.Level95, stats.Level99} {
		fmt.Printf("%-18.2f  %.3f\n", float64(level), stats.MustZValue(level))
	}
}

// boundaries prints the Fig. 2 / Fig. 4 boundary situations of the
// interestingness measure.
func boundaries() {
	header("Fig. 2 / Fig. 4 — boundary situations of the measure")
	labels := []string{"morning", "afternoon", "evening"}

	// Situation A (Fig. 2(A)/4(A)): proportional — uninteresting, M = 0.
	n1 := []int64{10000, 10000, 10000}
	c1 := []int64{200, 200, 200}
	n2 := []int64{10000, 10000, 10000}
	c2 := []int64{400, 400, 400}
	sA, _, err := compare.CompareValues("Time-of-Call", labels, n1, c1, n2, c2, compare.Options{DisableCI: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Situation A (ph2 = 2× ph1 everywhere):        M = %.4f  (paper: 0, minimum)\n", sA.Score)

	// Situation B (Fig. 4(B)): all excess in one value at 100% — maximum.
	n1b := []int64{10000, 10000, 10000}
	c1b := []int64{250, 250, 100}
	n2b := []int64{14400, 14400, 1200}
	c2b := []int64{0, 0, 1200}
	sB, resB, err := compare.CompareValues("Time-of-Call", labels, n1b, c1b, n2b, c2b, compare.Options{DisableCI: true})
	if err != nil {
		log.Fatal(err)
	}
	max := resB.Cf2 * float64(resB.Rule2.CondCount) // N_2k at the concentrated value
	fmt.Printf("Situation B (all drops in evening at 100%%):   M = %.1f  (theoretical cap cf2·|D2| = %.1f)\n", sB.Score, max)

	// Fig. 2(B): the interesting intermediate case.
	c2m := []int64{800, 200, 200}
	sM, _, err := compare.CompareValues("Time-of-Call", labels, n1, c1, n2, c2m, compare.Options{DisableCI: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Situation Fig. 2(B) (morning concentration):   M = %.1f  (positive, morning-only contribution)\n", sM.Score)
}

// caseStudy reproduces Section V.B and Figs. 5–8 on the planted call log.
func caseStudy(seed int64, run func(string) bool) {
	header("Case study — Section V.B (41-attribute call log)")
	ds, gt, err := workload.CallLog(workload.CaseStudyConfig(seed, 80000))
	if err != nil {
		log.Fatal(err)
	}
	src := pinned(ds)
	attr := ds.AttrIndex(gt.PhoneAttr)
	v1, _ := ds.Column(attr).Dict.Lookup(gt.GoodPhone)
	v2, _ := ds.Column(attr).Dict.Lookup(gt.BadPhone)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	res, err := compare.NewSource(src).Compare(compare.Input{Attr: attr, V1: v1, V2: v2, Class: cls}, compare.Options{})
	if err != nil {
		log.Fatal(err)
	}

	if run("fig5") || run("casestudy") {
		fmt.Println("\n--- Fig. 5: overall view (truncated) ---")
		var buf strings.Builder
		rep, err := gi.MineAllSource(context.Background(), src, gi.TrendOptions{}, gi.ExceptionOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if err := visual.Overall(context.Background(), &buf, src, visual.OverallOptions{Scale: true, Trends: rep.Trends}); err != nil {
			log.Fatal(err)
		}
		printHead(buf.String(), 48)
	}
	if run("fig6") || run("casestudy") {
		fmt.Println("\n--- Fig. 6: detailed view of Phone-Model ---")
		cube, err := src.CubeN(context.Background(), []int{attr})
		if err != nil {
			log.Fatal(err)
		}
		if err := visual.Detailed(os.Stdout, cube); err != nil {
			log.Fatal(err)
		}
	}
	if run("fig7") || run("casestudy") {
		fmt.Println("\n--- Fig. 7: ranking + top attribute with CI regions ---")
		fmt.Printf("top-ranked attribute: %q (planted: %q, match=%v)\n",
			res.Ranked[0].Name, gt.DistinguishingAttr, res.Ranked[0].Name == gt.DistinguishingAttr)
		visual.Ranking(os.Stdout, res, 8)
		visual.Comparison(os.Stdout, res, res.Ranked[0], gt.GoodPhone, gt.BadPhone)
	}
	if run("fig8") || run("casestudy") {
		fmt.Println("\n--- Fig. 8: property attributes (Section IV.C) ---")
		for _, p := range res.Property {
			fmt.Printf("%s: exclusivity ratio %.2f, M=%.2f (set aside, planted %q)\n",
				p.Name, p.PropertyRatio, p.Score, gt.PropertyAttr)
		}
	}
}

// fig9 reproduces Fig. 9: comparison time vs number of attributes, with
// rule cubes prebuilt. The paper's finding: linear growth, ≤ 0.8 s at
// 160 attributes — interactive.
func fig9(seed int64, records, maxAttrs int) {
	header("Fig. 9 — comparison computation time vs #attributes")
	fmt.Printf("(records behind the cubes: %d; comparison reads only cubes, so\n", records)
	fmt.Println(" time is independent of record count — the paper's claim in V.C)")
	fmt.Println("attrs    time")
	for n := 40; n <= maxAttrs; n += 40 {
		ds, err := workload.Scale(workload.ScaleConfig{Seed: seed, Records: records, Attrs: n})
		if err != nil {
			log.Fatal(err)
		}
		in := compare.Input{Attr: 0, V1: 0, V2: 1, Class: 1}
		cmp := compare.NewSource(pinned(ds))
		// Warm-up, then measure repeated comparisons for a stable time.
		if _, err := cmp.Compare(in, compare.Options{}); err != nil {
			log.Fatal(err)
		}
		const reps = 10
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := cmp.Compare(in, compare.Options{}); err != nil {
				log.Fatal(err)
			}
		}
		per := time.Since(start) / reps
		fmt.Printf("%5d    %v\n", n, per)
	}
}

// fig10 reproduces Fig. 10: rule-cube generation time vs #attributes at
// a fixed record count. Superlinear (quadratic in attributes: all pairs).
// The scans column counts dataset passes per store build: every cube is
// counted in one shared scan.
func fig10(seed int64, records, maxAttrs int) {
	header("Fig. 10 — cube generation time vs #attributes")
	fmt.Printf("(records: %d; paper used 2,000,000 — pass -records to match)\n", records)
	fmt.Println("attrs    cubes    scans    time")
	scans := obsv.Default().Counter(rulecube.CubeScansCounterName)
	for n := 40; n <= maxAttrs; n += 40 {
		ds, err := workload.Scale(workload.ScaleConfig{Seed: seed, Records: records, Attrs: n})
		if err != nil {
			log.Fatal(err)
		}
		s0 := scans.Value()
		start := time.Now()
		src := pinned(ds)
		elapsed := time.Since(start)
		fmt.Printf("%5d    %5d    %5d    %v\n", n, src.Stats().Pinned, scans.Value()-s0, elapsed)
	}
}

// fig11 reproduces Fig. 11: cube generation time vs #records at a fixed
// attribute count, increasing records by duplicating the base set
// exactly as the paper does. Linear.
func fig11(seed int64, baseRecords, attrs int) {
	header("Fig. 11 — cube generation time vs #records (duplication protocol)")
	fmt.Printf("(attributes: %d; base set %d records duplicated ×1..4 — the paper\n", attrs, baseRecords)
	fmt.Println(" duplicated a 2M-record set to 2/4/6/8M)")
	base, err := workload.Scale(workload.ScaleConfig{Seed: seed, Records: baseRecords, Attrs: attrs})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("records      time")
	for factor := 1; factor <= 4; factor++ {
		ds := base.Duplicate(factor)
		start := time.Now()
		pinned(ds)
		fmt.Printf("%9d    %v\n", ds.NumRows(), time.Since(start))
	}
}

// printHead prints at most n lines of s.
func printHead(s string, n int) {
	ls := strings.Split(s, "\n")
	if len(ls) > n {
		ls = append(ls[:n], fmt.Sprintf("... (%d more lines)", len(ls)-n))
	}
	fmt.Println(strings.Join(ls, "\n"))
}
