// Command opmap is the command-line front end of the Opportunity Map
// pipeline: load a CSV, discretize, build rule cubes, then run one of
// the analyses (overall view, detailed view, comparison, impressions,
// rule mining).
//
// Usage:
//
//	opmap -data calls.csv -class Disposition overview
//	opmap -data calls.csv -class Disposition detail -attr Phone-Model
//	opmap -data calls.csv -class Disposition compare -attr Phone-Model -v1 ph1 -v2 ph2 -target dropped-in-progress
//	opmap -data calls.csv -class Disposition impressions
//	opmap -data calls.csv -class Disposition rules -minsup 0.01 -minconf 0.5
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"opmap"
)

func usage() {
	fmt.Fprintf(os.Stderr, `opmap — Opportunity Map diagnostic mining (ICDE 2009 reproduction)

usage: opmap [global flags] <command> [command flags]

commands:
  describe      per-attribute profile of the loaded data
  overview      render the Fig. 5 overall view of all rule cubes
  detail        render the Fig. 6 detailed view of one attribute
  compare       run the automated comparison (Section IV)
  onevsrest     compare one value against the rest of the population
  pairs         screen an attribute's value pairs for significant gaps
  sweep         compare every significant pair; systemic vs specific causes
  significance  permutation test of one attribute's interestingness
  impressions   mine trends, exceptions and influential attributes
  rules         mine class association rules
  report        write a Markdown comparison report
  savecubes     materialize rule cubes and write the session as a snapshot
  shard-build   cube one row-shard and write it as a snapshot (savecubes, named for its role)
  shard-merge   merge shard snapshots into one serving snapshot (needs no -data)
  repl          interactive exploration session (overview/detail/compare/focus/back)

global flags (use -snapshot FILE instead of -data to serve from a saved session):
`)
	flag.PrintDefaults()
}

func main() {
	log.SetFlags(0)
	var (
		data    = flag.String("data", "", "CSV or ARFF file to analyze (by extension)")
		snap    = flag.String("snapshot", "", "session snapshot to serve from (alternative to -data)")
		class   = flag.String("class", "", "class attribute name (default: last column)")
		bins    = flag.Int("bins", 0, "bins for equal-width/frequency discretization")
		method  = flag.String("discretize", "mdlp", "discretization: mdlp, width, freq")
		svgPath = flag.String("svg", "", "also write the view as SVG to this path (detail/compare)")
	)
	flag.Usage = usage
	flag.Parse()
	// shard-merge operates purely on snapshot files: intercept it before
	// the -data/-snapshot requirement below.
	if flag.Arg(0) == "shard-merge" {
		fs := flag.NewFlagSet("shard-merge", flag.ExitOnError)
		out := fs.String("o", "merged.omapsnap", "output snapshot path")
		fs.Parse(flag.Args()[1:])
		if fs.NArg() == 0 {
			log.Fatal("shard-merge: at least one source snapshot is required")
		}
		if err := opmap.MergeSnapshotFiles(*out, fs.Args()...); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "merged %d shard(s) into %s\n", fs.NArg(), *out)
		return
	}
	if (*data == "" && *snap == "") || flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	var session *opmap.Session
	var err error
	if *snap != "" {
		session, err = opmap.LoadSnapshotFile(*snap)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		if strings.HasSuffix(strings.ToLower(*data), ".arff") {
			session, err = opmap.LoadARFFFile(*data, *class)
		} else {
			session, err = opmap.LoadCSVFile(*data, opmap.LoadOptions{Class: *class})
		}
		if err != nil {
			log.Fatal(err)
		}
		dopts := opmap.DiscretizeOptions{Bins: *bins}
		switch *method {
		case "mdlp":
			dopts.Method = opmap.EntropyMDLP
		case "width":
			dopts.Method = opmap.EqualWidth
		case "freq":
			dopts.Method = opmap.EqualFrequency
		default:
			log.Fatalf("unknown discretization method %q", *method)
		}
		if err := session.Discretize(dopts); err != nil {
			log.Fatal(err)
		}
	}
	fromSnapshot := *snap != ""

	requireCubes := func() {
		if fromSnapshot {
			return // already materialized
		}
		if err := session.BuildCubes(); err != nil {
			log.Fatal(err)
		}
	}

	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	switch cmd {
	case "describe":
		if err := session.Describe(os.Stdout); err != nil {
			log.Fatal(err)
		}
	case "overview":
		requireCubes()
		if err := session.RenderOverall(os.Stdout); err != nil {
			log.Fatal(err)
		}
	case "detail":
		fs := flag.NewFlagSet("detail", flag.ExitOnError)
		attr := fs.String("attr", "", "attribute to show (required)")
		fs.Parse(args)
		if *attr == "" {
			log.Fatal("detail: -attr is required")
		}
		requireCubes()
		if err := session.RenderDetailed(os.Stdout, *attr); err != nil {
			log.Fatal(err)
		}
		if *svgPath != "" {
			writeSVG(*svgPath, func(f *os.File) error {
				return session.RenderDetailedSVG(f, *attr)
			})
		}
	case "compare":
		fs := flag.NewFlagSet("compare", flag.ExitOnError)
		attr := fs.String("attr", "", "comparison attribute (required)")
		v1 := fs.String("v1", "", "first value (required)")
		v2 := fs.String("v2", "", "second value (required)")
		target := fs.String("target", "", "class of interest (required)")
		topN := fs.Int("top", 10, "attributes to list")
		level := fs.Float64("level", 0.95, "statistical confidence level")
		noCI := fs.Bool("noci", false, "disable the confidence-interval adjustment")
		fs.Parse(args)
		if *attr == "" || *v1 == "" || *v2 == "" || *target == "" {
			log.Fatal("compare: -attr, -v1, -v2 and -target are required")
		}
		requireCubes()
		cmp, err := session.Compare(*attr, *v1, *v2, *target, opmap.CompareOptions{
			ConfidenceLevel: *level,
			DisableCI:       *noCI,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s=%s (%.3f%%)  vs  %s=%s (%.3f%%) on class %s\n\n",
			*attr, cmp.Label1, 100*cmp.Cf1, *attr, cmp.Label2, 100*cmp.Cf2, *target)
		cmp.RenderRanking(os.Stdout, *topN)
		if top := cmp.Top(1); len(top) > 0 {
			fmt.Println()
			if err := cmp.RenderAttribute(os.Stdout, top[0].Name); err != nil {
				log.Fatal(err)
			}
			if *svgPath != "" {
				writeSVG(*svgPath, func(f *os.File) error {
					return cmp.RenderAttributeSVG(f, top[0].Name)
				})
			}
		}
	case "sweep":
		fs := flag.NewFlagSet("sweep", flag.ExitOnError)
		attr := fs.String("attr", "", "attribute whose value pairs to sweep (required)")
		target := fs.String("target", "", "class of interest (required)")
		maxPairs := fs.Int("pairs", 0, "max pairs to compare (0 = all significant)")
		sweepOut := fs.String("o", "", "also write a Markdown sweep report to this path")
		fs.Parse(args)
		if *attr == "" || *target == "" {
			log.Fatal("sweep: -attr and -target are required")
		}
		requireCubes()
		res, err := session.Sweep(*attr, *target, *maxPairs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("swept %d significant pairs (%d skipped)\n", res.PairsCompared, res.PairsSkipped)
		for _, a := range res.Attributes {
			fmt.Printf("  %-28s pairs=%-3d best M=%.1f (%s vs %s)\n",
				a.Name, a.Pairs, a.BestScore, a.BestPair[0], a.BestPair[1])
		}
		if *sweepOut != "" {
			f, err := os.Create(*sweepOut)
			if err != nil {
				log.Fatal(err)
			}
			err = session.WriteSweepReport(f, *attr, *target, *maxPairs,
				opmap.ReportOptions{Timestamp: time.Now()})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *sweepOut)
		}
	case "significance":
		fs := flag.NewFlagSet("significance", flag.ExitOnError)
		attr := fs.String("attr", "", "comparison attribute (required)")
		v1 := fs.String("v1", "", "first value (required)")
		v2 := fs.String("v2", "", "second value (required)")
		target := fs.String("target", "", "class of interest (required)")
		cand := fs.String("candidate", "", "attribute whose M to test (required)")
		rounds := fs.Int("rounds", 200, "permutation rounds")
		seed := fs.Int64("seed", 1, "PRNG seed")
		fs.Parse(args)
		if *attr == "" || *v1 == "" || *v2 == "" || *target == "" || *cand == "" {
			log.Fatal("significance: -attr, -v1, -v2, -target and -candidate are required")
		}
		sig, err := session.TestSignificance(*attr, *v1, *v2, *target, *cand, *rounds, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: observed M=%.2f  null mean=%.2f q95=%.2f  p=%.4f (%d rounds)\n",
			sig.Attr, sig.Observed, sig.NullMean, sig.NullQ95, sig.PValue, sig.Rounds)
	case "onevsrest":
		fs := flag.NewFlagSet("onevsrest", flag.ExitOnError)
		attr := fs.String("attr", "", "attribute (required)")
		value := fs.String("value", "", "value to compare against the rest (required)")
		target := fs.String("target", "", "class of interest (required)")
		topN := fs.Int("top", 10, "attributes to list")
		fs.Parse(args)
		if *attr == "" || *value == "" || *target == "" {
			log.Fatal("onevsrest: -attr, -value and -target are required")
		}
		requireCubes()
		cmp, err := session.CompareOneVsRest(*attr, *value, *target, opmap.CompareOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s=%s (%.3f%%)  vs  %s (%.3f%%) on class %s\n\n",
			*attr, cmp.Label2, 100*cmp.Cf2, cmp.Label1, 100*cmp.Cf1, *target)
		cmp.RenderRanking(os.Stdout, *topN)
		if top := cmp.Top(1); len(top) > 0 {
			fmt.Println()
			if err := cmp.RenderAttribute(os.Stdout, top[0].Name); err != nil {
				log.Fatal(err)
			}
		}
	case "pairs":
		fs := flag.NewFlagSet("pairs", flag.ExitOnError)
		attr := fs.String("attr", "", "attribute to screen (required)")
		target := fs.String("target", "", "class of interest (required)")
		topN := fs.Int("top", 10, "pairs to list")
		fs.Parse(args)
		if *attr == "" || *target == "" {
			log.Fatal("pairs: -attr and -target are required")
		}
		requireCubes()
		pairs, err := session.ScreenPairs(*attr, *target, *topN)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %-14s %9s %9s %7s %9s\n", "low", "high", "rate-lo", "rate-hi", "z", "p")
		for _, p := range pairs {
			fmt.Printf("%-14s %-14s %8.3f%% %8.3f%% %7.1f %9.2g\n",
				p.Value1, p.Value2, 100*p.Cf1, 100*p.Cf2, p.Z, p.PValue)
		}
	case "report":
		fs := flag.NewFlagSet("report", flag.ExitOnError)
		attr := fs.String("attr", "", "comparison attribute (required)")
		v1 := fs.String("v1", "", "first value (required)")
		v2 := fs.String("v2", "", "second value (required)")
		target := fs.String("target", "", "class of interest (required)")
		out := fs.String("o", "", "output Markdown path (default stdout)")
		topN := fs.Int("top", 5, "attributes detailed in full")
		noGI := fs.Bool("nogi", false, "omit the general-impressions appendix")
		fs.Parse(args)
		if *attr == "" || *v1 == "" || *v2 == "" || *target == "" {
			log.Fatal("report: -attr, -v1, -v2 and -target are required")
		}
		requireCubes()
		cmp, err := session.Compare(*attr, *v1, *v2, *target, opmap.CompareOptions{})
		if err != nil {
			log.Fatal(err)
		}
		w := os.Stdout
		var f *os.File
		if *out != "" {
			f, err = os.Create(*out)
			if err != nil {
				log.Fatal(err)
			}
			w = f
		}
		err = session.WriteReport(w, cmp, opmap.ReportOptions{
			TopN:               *topN,
			Timestamp:          time.Now(),
			IncludeImpressions: !*noGI,
		})
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		if *out != "" {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
		}
	case "repl":
		requireCubes()
		if err := session.Explore(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
	case "savecubes", "shard-build":
		// Both write the session as a snapshot: savecubes one to serve
		// from, shard-build one row-shard for shard-merge or opmapd
		// -shard-dir to assemble. The snapshot records the source's hash,
		// a reloaded snapshot's own.
		out := "cubes.omapsnap"
		if cmd == "shard-build" {
			out = "shard.omapsnap"
		}
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		path := fs.String("o", out, "output snapshot path")
		fs.Parse(args)
		requireCubes()
		var hash string
		if fromSnapshot {
			info, err := opmap.PeekSnapshotFile(*snap)
			if err != nil {
				log.Fatal(err)
			}
			hash = info.SourceHash
		} else if hash, err = opmap.HashSourceFile(*data); err != nil {
			log.Fatal(err)
		}
		if err := session.SaveSnapshotFile(*path, opmap.SnapshotOptions{SourceHash: hash}); err != nil {
			log.Fatal(err)
		}
		cells := session.RuleSpaceSize()
		fmt.Fprintf(os.Stderr, "wrote %s: %d rows, %d cubes (%d cells ≈ %.1f MiB counts)\n",
			*path, session.NumRows(), session.CubeCount(), cells, float64(8*cells)/(1<<20))
	case "impressions":
		requireCubes()
		imp, err := session.Impressions(opmap.ImpressionOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Influential attributes:")
		for i, inf := range imp.Influential {
			if i >= 10 {
				break
			}
			fmt.Printf("  %2d. %-28s chi2=%12.1f  p=%.3g  MI=%.5f\n",
				i+1, inf.Attr, inf.ChiSquare, inf.PValue, inf.MutualInformation)
		}
		fmt.Println("Trends:")
		for _, tr := range imp.Trends {
			fmt.Printf("  %s: %s is %s (strength %.2f)\n", tr.Class, tr.Attr, tr.Kind, tr.Strength)
		}
		fmt.Println("Exceptions:")
		for i, ex := range imp.Exceptions {
			if i >= 10 {
				break
			}
			fmt.Printf("  %s=%s -> %s: %.2f%% (expected %.2f%%, z=%.1f, n=%d)\n",
				ex.Attr, ex.Value, ex.Class, 100*ex.Confidence, 100*ex.Expected, ex.ZScore, ex.Support)
		}
	case "rules":
		fs := flag.NewFlagSet("rules", flag.ExitOnError)
		minSup := fs.Float64("minsup", 0.01, "minimum support")
		minConf := fs.Float64("minconf", 0.5, "minimum confidence")
		maxLen := fs.Int("maxlen", 2, "maximum conditions")
		limit := fs.Int("limit", 50, "rules to print")
		measure := fs.String("rank", "", "rank by measure instead (lift, chi-squared, ...)")
		query := fs.String("query", "", `filter query, e.g. "class=dropped and conf >= 0.05"`)
		fs.Parse(args)
		if *query != "" {
			rules, err := session.QueryRules(*query, opmap.MineOptions{
				MinSupport: *minSup, MinConfidence: *minConf, MaxConditions: *maxLen,
			})
			if err != nil {
				log.Fatal(err)
			}
			for i, r := range rules {
				if i >= *limit {
					break
				}
				fmt.Println(r)
			}
			fmt.Fprintf(os.Stderr, "%d rules matched\n", len(rules))
			return
		}
		if *measure != "" {
			ranked, err := session.RankRules(*measure, opmap.MineOptions{
				MinSupport: *minSup, MinConfidence: *minConf, MaxConditions: *maxLen,
			})
			if err != nil {
				log.Fatal(err)
			}
			for i, rr := range ranked {
				if i >= *limit {
					break
				}
				fmt.Printf("%8.3f  %v\n", rr.Value, rr.Rule)
			}
			return
		}
		rules, err := session.MineRules(opmap.MineOptions{
			MinSupport: *minSup, MinConfidence: *minConf, MaxConditions: *maxLen,
		})
		if err != nil {
			log.Fatal(err)
		}
		for i, r := range rules {
			if i >= *limit {
				break
			}
			fmt.Println(r)
		}
		fmt.Fprintf(os.Stderr, "%d rules total\n", len(rules))
	default:
		log.Fatalf("unknown command %q\nrun 'opmap' with no arguments for usage", cmd)
	}
}

func writeSVG(path string, f func(*os.File) error) {
	fh, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := f(fh); err != nil {
		log.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
