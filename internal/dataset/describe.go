package dataset

import (
	"fmt"
	"io"
	"math"
	"sort"

	"opmap/internal/stats"
)

// Profiling: a per-attribute summary of the loaded data, the first thing
// an analyst checks before mining (domain sizes drive cube memory, the
// class skew drives sampling, missing rates drive trust).

// AttrProfile summarizes one attribute.
type AttrProfile struct {
	Name    string
	Kind    Kind
	Missing int64 // records with a missing value

	// Categorical fields.
	Cardinality int
	TopValue    string // most frequent value
	TopCount    int64

	// Continuous fields.
	Min, Max, Mean, StdDev float64
}

// Profile summarizes a dataset.
type Profile struct {
	Rows       int
	Attrs      []AttrProfile
	ClassAttr  string
	ClassDist  map[string]int64
	MajorShare float64 // fraction of the most frequent class
}

// Describe computes the profile of ds.
func Describe(ds *Dataset) Profile {
	p := Profile{
		Rows:      ds.NumRows(),
		ClassAttr: ds.Attr(ds.ClassIndex()).Name,
		ClassDist: make(map[string]int64),
	}
	dist := ds.ClassDistribution()
	var max, total int64
	for c, n := range dist {
		p.ClassDist[ds.ClassDict().Label(int32(c))] = n
		total += n
		if n > max {
			max = n
		}
	}
	if total > 0 {
		p.MajorShare = float64(max) / float64(total)
	}

	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.Column(i)
		ap := AttrProfile{Name: ds.Attr(i).Name, Kind: col.Kind}
		if col.Kind == Categorical {
			ap.Cardinality = col.Dict.Len()
			counts := make([]int64, col.Dict.Len())
			ap.Missing = countCodes(&col.Codes, counts)
			var top int64 = -1
			for v, n := range counts {
				if n > top {
					top = n
					ap.TopValue = col.Dict.Label(int32(v))
					ap.TopCount = n
				}
			}
		} else {
			ap.Min, ap.Max = math.Inf(1), math.Inf(-1)
			var sum, n float64
			for _, v := range col.Values {
				if math.IsNaN(v) {
					ap.Missing++
					continue
				}
				if v < ap.Min {
					ap.Min = v
				}
				if v > ap.Max {
					ap.Max = v
				}
				sum += v
				n++
			}
			if stats.IsZero(n) {
				ap.Min, ap.Max = math.NaN(), math.NaN()
			} else {
				ap.Mean = sum / n
				var ss float64
				for _, v := range col.Values {
					if math.IsNaN(v) {
						continue
					}
					d := v - ap.Mean
					ss += d * d
				}
				ap.StdDev = math.Sqrt(ss / n)
			}
		}
		p.Attrs = append(p.Attrs, ap)
	}
	return p
}

// Write renders the profile as a fixed-width table.
func (p Profile) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%d records, %d attributes, class %q (majority share %.2f%%)\n",
		p.Rows, len(p.Attrs), p.ClassAttr, 100*p.MajorShare); err != nil {
		return err
	}
	labels := make([]string, 0, len(p.ClassDist))
	for l := range p.ClassDist {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return p.ClassDist[labels[i]] > p.ClassDist[labels[j]] })
	for _, l := range labels {
		if _, err := fmt.Fprintf(w, "  class %-28s %d\n", l, p.ClassDist[l]); err != nil {
			return err
		}
	}
	for _, a := range p.Attrs {
		switch a.Kind {
		case Categorical:
			if _, err := fmt.Fprintf(w, "%-28s categorical  card=%-5d top=%s(%d)  missing=%d\n",
				a.Name, a.Cardinality, a.TopValue, a.TopCount, a.Missing); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%-28s continuous   min=%-10.4g max=%-10.4g mean=%-10.4g sd=%-10.4g missing=%d\n",
				a.Name, a.Min, a.Max, a.Mean, a.StdDev, a.Missing); err != nil {
				return err
			}
		}
	}
	return nil
}
