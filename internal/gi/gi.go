// Package gi implements the general-impressions (GI) miner of the
// Opportunity Map system (Section V.A, from the authors' prior work
// [17, 20]): automatic identification of unit trends across an
// attribute's value sequence, exceptional cells in rule cubes, and
// influential attributes. These are the analyses the overall
// visualization (Fig. 5) decorates with trend arrows and that guide the
// user toward attributes worth a detailed look.
package gi

import (
	"context"
	"fmt"
	"math"
	"sort"

	"opmap/internal/engine"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/stats"
)

// TrendKind classifies a unit trend over an attribute's ordered values.
type TrendKind uint8

const (
	// NoTrend means the confidences are neither monotone nor flat.
	NoTrend TrendKind = iota
	// Increasing confidences (green arrow in Fig. 5).
	Increasing
	// Decreasing confidences (red arrow in Fig. 5).
	Decreasing
	// Stable confidences (gray arrow in Fig. 5).
	Stable
)

// String implements fmt.Stringer.
func (k TrendKind) String() string {
	switch k {
	case NoTrend:
		return "none"
	case Increasing:
		return "increasing"
	case Decreasing:
		return "decreasing"
	case Stable:
		return "stable"
	default:
		return fmt.Sprintf("TrendKind(%d)", uint8(k))
	}
}

// Trend is a detected unit trend of one class's confidence across the
// ordered values of one attribute.
type Trend struct {
	Attr        int
	AttrName    string
	Class       int32
	ClassLabel  string
	Kind        TrendKind
	Confidences []float64 // per value, in value-code order
	// Strength in [0,1]: fraction of adjacent steps consistent with the
	// trend direction (1 = perfectly monotone). For Stable it is
	// 1 − (max−min)/tolerance scaled into [0,1].
	Strength float64
}

// TrendOptions tunes trend detection.
type TrendOptions struct {
	// Tolerance is the absolute confidence change below which a step
	// counts as flat. Zero means 0.005.
	Tolerance float64
	// MinStrength is the minimum strength to report a trend. Zero means
	// 0.8 (allowing occasional flat steps in a monotone run).
	MinStrength float64
	// MinSupportPerValue skips values backed by fewer records. Zero
	// means 1.
	MinSupportPerValue int64
}

func (o TrendOptions) tolerance() float64 {
	if stats.IsZero(o.Tolerance) {
		return 0.005
	}
	return o.Tolerance
}

func (o TrendOptions) minStrength() float64 {
	if stats.IsZero(o.MinStrength) {
		return 0.8
	}
	return o.MinStrength
}

// Trends scans a 2-D rule cube (attribute × class) for unit trends of
// each class's confidence across the attribute's values in dictionary
// order (the natural order for discretized intervals and ordinal
// attributes).
func Trends(cube *rulecube.Cube, opts TrendOptions) ([]Trend, error) {
	if cube.NumDims() != 1 {
		return nil, fmt.Errorf("gi: Trends needs a 2-D rule cube, got %d condition dims", cube.NumDims())
	}
	minSup := opts.MinSupportPerValue
	if minSup == 0 {
		minSup = 1
	}
	card := cube.Dim(0)
	var out []Trend
	for cls := int32(0); int(cls) < cube.NumClasses(); cls++ {
		var confs []float64
		for v := int32(0); int(v) < card; v++ {
			cond, err := cube.CondCount([]int32{v})
			if err != nil {
				return nil, err
			}
			if cond < minSup {
				continue // skip unsupported values rather than fabricating 0
			}
			cf, err := cube.Confidence([]int32{v}, cls)
			if err != nil {
				return nil, err
			}
			confs = append(confs, cf)
		}
		if len(confs) < 2 {
			continue
		}
		kind, strength := classify(confs, opts.tolerance())
		if kind == NoTrend || strength < opts.minStrength() {
			continue
		}
		out = append(out, Trend{
			Attr:        cube.AttrIndices()[0],
			AttrName:    cube.AttrNames()[0],
			Class:       cls,
			ClassLabel:  cube.ClassDict().Label(cls),
			Kind:        kind,
			Confidences: confs,
			Strength:    strength,
		})
	}
	return out, nil
}

// classify decides the trend kind of a confidence sequence.
func classify(confs []float64, tol float64) (TrendKind, float64) {
	ups, downs, flats := 0, 0, 0
	for i := 1; i < len(confs); i++ {
		d := confs[i] - confs[i-1]
		switch {
		case d > tol:
			ups++
		case d < -tol:
			downs++
		default:
			flats++
		}
	}
	steps := float64(len(confs) - 1)
	switch {
	case ups == 0 && downs == 0:
		return Stable, 1
	case downs == 0 && ups > 0:
		return Increasing, (float64(ups) + float64(flats)) / steps
	case ups == 0 && downs > 0:
		return Decreasing, (float64(downs) + float64(flats)) / steps
	default:
		// Mixed: monotone enough if one direction dominates strongly.
		if float64(ups)/steps >= 0.8 {
			return Increasing, float64(ups) / steps
		}
		if float64(downs)/steps >= 0.8 {
			return Decreasing, float64(downs) / steps
		}
		return NoTrend, 0
	}
}

// ConditionalTrend is a unit trend detected within one sub-population:
// for the first dimension's value v, the class confidence across the
// second dimension's values is monotone or stable. Comparing each
// product's own trend ("ph2's drop rate rises toward the morning while
// ph1's is flat") is the 3-D-cube reading of Fig. 7.
type ConditionalTrend struct {
	FixedAttr  int
	FixedName  string
	FixedValue int32
	FixedLabel string
	Trend      Trend
}

// TrendsWithin scans a 3-D rule cube for unit trends of the second
// dimension's confidences within each value of the first dimension.
func TrendsWithin(cube *rulecube.Cube, opts TrendOptions) ([]ConditionalTrend, error) {
	if cube.NumDims() != 2 {
		return nil, fmt.Errorf("gi: TrendsWithin needs a 3-D rule cube, got %d condition dims", cube.NumDims())
	}
	var out []ConditionalTrend
	for v := int32(0); int(v) < cube.Dim(0); v++ {
		sliced, err := cube.Slice(0, v)
		if err != nil {
			return nil, err
		}
		trends, err := Trends(sliced, opts)
		if err != nil {
			return nil, err
		}
		for _, tr := range trends {
			out = append(out, ConditionalTrend{
				FixedAttr:  cube.AttrIndices()[0],
				FixedName:  cube.AttrNames()[0],
				FixedValue: v,
				FixedLabel: cube.Dict(0).Label(v),
				Trend:      tr,
			})
		}
	}
	return out, nil
}

// Exception is a cube cell whose confidence deviates strongly from its
// attribute's typical confidence for that class.
type Exception struct {
	Attr       int
	AttrName   string
	Value      int32
	ValueLabel string
	Class      int32
	ClassLabel string
	Confidence float64
	Expected   float64 // mean confidence of the class across values
	ZScore     float64 // deviation in attribute-level standard deviations
	Support    int64   // records behind the cell
}

// ExceptionOptions tunes exception mining.
type ExceptionOptions struct {
	// MinZ is the minimum |z| to report. Zero means 2.
	MinZ float64
	// MinSupport skips cells backed by fewer records. Zero means 30
	// (below that the normal approximation is meaningless).
	MinSupport int64
}

func (o ExceptionOptions) minZ() float64 {
	if stats.IsZero(o.MinZ) {
		return 2
	}
	return o.MinZ
}

func (o ExceptionOptions) minSupport() int64 {
	if o.MinSupport == 0 {
		return 30
	}
	return o.MinSupport
}

// Exceptions finds exceptional cells in a 2-D rule cube: values whose
// class confidence is far from the attribute's mean confidence for that
// class, measured in standard deviations across values.
func Exceptions(cube *rulecube.Cube, opts ExceptionOptions) ([]Exception, error) {
	if cube.NumDims() != 1 {
		return nil, fmt.Errorf("gi: Exceptions needs a 2-D rule cube, got %d condition dims", cube.NumDims())
	}
	card := cube.Dim(0)
	var out []Exception
	for cls := int32(0); int(cls) < cube.NumClasses(); cls++ {
		type cell struct {
			v    int32
			cf   float64
			cond int64
		}
		var cells []cell
		var confs []float64
		for v := int32(0); int(v) < card; v++ {
			cond, err := cube.CondCount([]int32{v})
			if err != nil {
				return nil, err
			}
			if cond < opts.minSupport() {
				continue
			}
			cf, err := cube.Confidence([]int32{v}, cls)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{v, cf, cond})
			confs = append(confs, cf)
		}
		if len(cells) < 3 {
			continue
		}
		mean := stats.Mean(confs)
		sd := stats.StdDev(confs)
		if stats.IsZero(sd) {
			continue
		}
		for _, c := range cells {
			z := (c.cf - mean) / sd
			if math.Abs(z) < opts.minZ() {
				continue
			}
			out = append(out, Exception{
				Attr:       cube.AttrIndices()[0],
				AttrName:   cube.AttrNames()[0],
				Value:      c.v,
				ValueLabel: cube.Dict(0).Label(c.v),
				Class:      cls,
				ClassLabel: cube.ClassDict().Label(cls),
				Confidence: c.cf,
				Expected:   mean,
				ZScore:     z,
				Support:    c.cond,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].ZScore) > math.Abs(out[j].ZScore)
	})
	return out, nil
}

// Influence measures how strongly an attribute's values modulate the
// class distribution.
type Influence struct {
	Attr     int
	AttrName string
	// ChiSquare is Pearson's statistic of the value × class table; DF
	// its degrees of freedom; PValue the upper-tail p-value.
	ChiSquare float64
	DF        int
	PValue    float64
	// MutualInformation is I(attr; class) in bits.
	MutualInformation float64
}

// InfluentialAttributesSource ranks every served attribute of src by
// how much it influences the class, using the chi-square statistic of
// its value × class contingency table (ties broken by mutual
// information). This realizes the "important attributes" part of the GI
// miner. A lazy source materializes each attribute's 1-D cube on first
// touch; ctx is checked once per attribute.
func InfluentialAttributesSource(ctx context.Context, src *engine.LazySource) ([]Influence, error) {
	var out []Influence
	for _, a := range src.Attrs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faultinject.HitContext(ctx, faultinject.SiteGIAttr); err != nil {
			return nil, err
		}
		cube, err := src.CubeN(ctx, []int{a})
		if err != nil {
			return nil, err
		}
		inf, err := influenceOf(cube)
		if err != nil {
			return nil, err
		}
		out = append(out, inf)
	}
	sort.SliceStable(out, func(i, j int) bool {
		switch {
		case out[i].ChiSquare > out[j].ChiSquare:
			return true
		case out[j].ChiSquare > out[i].ChiSquare:
			return false
		}
		return out[i].MutualInformation > out[j].MutualInformation
	})
	return out, nil
}

func influenceOf(cube *rulecube.Cube) (Influence, error) {
	if cube.NumDims() != 1 {
		return Influence{}, fmt.Errorf("gi: influence needs a 2-D rule cube")
	}
	card := cube.Dim(0)
	nc := cube.NumClasses()
	table := make([][]int64, card)
	for v := 0; v < card; v++ {
		table[v] = make([]int64, nc)
		for k := 0; k < nc; k++ {
			n, err := cube.Count([]int32{int32(v)}, int32(k))
			if err != nil {
				return Influence{}, err
			}
			table[v][k] = n
		}
	}
	chi2, df, err := stats.ChiSquare(table)
	if err != nil {
		return Influence{}, err
	}
	return Influence{
		Attr:              cube.AttrIndices()[0],
		AttrName:          cube.AttrNames()[0],
		ChiSquare:         chi2,
		DF:                df,
		PValue:            stats.ChiSquarePValue(chi2, df),
		MutualInformation: mutualInformation(table),
	}, nil
}

// mutualInformation computes I(X;Y) in bits from a contingency table.
func mutualInformation(table [][]int64) float64 {
	var total float64
	rows := make([]float64, len(table))
	var cols []float64
	for i, row := range table {
		if cols == nil {
			cols = make([]float64, len(row))
		}
		for j, n := range row {
			rows[i] += float64(n)
			cols[j] += float64(n)
			total += float64(n)
		}
	}
	if stats.IsZero(total) {
		return 0
	}
	var mi float64
	for i, row := range table {
		for j, n := range row {
			if n == 0 {
				continue
			}
			pxy := float64(n) / total
			px := rows[i] / total
			py := cols[j] / total
			mi += pxy * math.Log2(pxy/(px*py))
		}
	}
	if mi < 0 {
		mi = 0 // guard against floating-point jitter
	}
	return mi
}

// Report bundles all general impressions of a store for one pass.
type Report struct {
	Trends      []Trend
	Exceptions  []Exception
	Influential []Influence
}

// MineAllSource runs trends, exceptions and influence over every
// served attribute's 1-D cube. Only 1-D cubes are touched, so a lazy
// source serves an impressions report without materializing any pair
// cube. ctx is checked once per attribute. It is strict: a partial
// impressions report would silently miss trends, so cancellation
// returns ctx.Err().
func MineAllSource(ctx context.Context, src *engine.LazySource, topts TrendOptions, eopts ExceptionOptions) (*Report, error) {
	defer obsv.Stage(obsv.StageGIMine)()
	rep := &Report{}
	for _, a := range src.Attrs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faultinject.HitContext(ctx, faultinject.SiteGIAttr); err != nil {
			return nil, err
		}
		cube, err := src.CubeN(ctx, []int{a})
		if err != nil {
			return nil, err
		}
		tr, err := Trends(cube, topts)
		if err != nil {
			return nil, err
		}
		rep.Trends = append(rep.Trends, tr...)
		ex, err := Exceptions(cube, eopts)
		if err != nil {
			return nil, err
		}
		rep.Exceptions = append(rep.Exceptions, ex...)
	}
	inf, err := InfluentialAttributesSource(ctx, src)
	if err != nil {
		return nil, err
	}
	rep.Influential = inf
	sort.SliceStable(rep.Exceptions, func(i, j int) bool {
		return math.Abs(rep.Exceptions[i].ZScore) > math.Abs(rep.Exceptions[j].ZScore)
	})
	return rep, nil
}
