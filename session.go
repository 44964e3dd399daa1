package opmap

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"opmap/internal/dataset"
	"opmap/internal/discretize"
	"opmap/internal/engine"
	"opmap/internal/obsv"
	"opmap/internal/workload"
)

// Session is the top-level handle of the Opportunity Map pipeline: it
// owns a dataset, the fully categorical working dataset derived from it
// (which shares its categorical columns), and the cube engine —
// with every 1-D and pair cube counted up front and pinned (eager
// mode, the default) or with cubes built on first touch (lazy mode).
// Read-only queries may
// run concurrently once a BuildCubes variant has returned, and Append
// may run concurrently with them: mutations take the write side of the
// session lock, every query entry point the read side.
type Session struct {
	// mu serializes mutations (Append, Discretize, BuildCubes,
	// DownsampleMajority) against queries. Every public entry point
	// acquires it exactly once — locked methods never call other locked
	// methods, so the lock never nests. Explore and ExploreScript are
	// the exception: they hold no lock themselves and make one such
	// call per command, between which a mutation may run.
	mu sync.RWMutex

	raw *dataset.Dataset // as loaded; may contain continuous attributes
	// ds is the fully categorical working dataset: raw itself when raw
	// is all categorical, else raw's dataset.Derive, which holds only
	// the binned continuous columns and shares the rest with raw.
	ds   *dataset.Dataset
	cuts map[string][]float64
	src  *engine.LazySource // set by any BuildCubes variant
	// results memoizes every completed compare, one-vs-rest over all
	// values, sweep, drill-down and impressions run under a snapshot
	// version; Discretize, DownsampleMajority and rebuilds invalidate
	// it wholly, appends surgically per attribute. Always non-nil.
	results *engine.ResultCache

	// ingestSeq is the WAL sequence of the last applied append batch,
	// recorded in snapshots so recovery knows where replay must resume.
	// Set by AppendSeq.
	ingestSeq uint64
}

// LoadOptions configures CSV loading.
type LoadOptions struct {
	// Class names the class attribute; empty means the last column.
	Class string
	// Continuous lists attributes to force-parse as continuous; others
	// are sniffed (numeric and high-cardinality ⇒ continuous).
	Continuous []string
	// Categorical lists attributes to force as categorical.
	Categorical []string
	// Comma is the field separator; zero means ','.
	Comma rune
	// MaxRows, MaxColumns and MaxRecordBytes bound untrusted input:
	// loading fails with a clear error when the stream exceeds any of
	// them. Zero means unlimited (trusted local files).
	MaxRows        int
	MaxColumns     int
	MaxRecordBytes int
}

func (o LoadOptions) csvOptions() dataset.CSVOptions {
	kinds := make(map[string]dataset.Kind)
	for _, n := range o.Continuous {
		kinds[n] = dataset.Continuous
	}
	for _, n := range o.Categorical {
		kinds[n] = dataset.Categorical
	}
	return dataset.CSVOptions{
		ClassAttr:      o.Class,
		Kinds:          kinds,
		Comma:          o.Comma,
		MaxRows:        o.MaxRows,
		MaxColumns:     o.MaxColumns,
		MaxRecordBytes: o.MaxRecordBytes,
	}
}

// LoadCSV builds a session from a header-bearing CSV stream.
func LoadCSV(r io.Reader, opts LoadOptions) (*Session, error) {
	ds, err := dataset.ReadCSV(r, opts.csvOptions())
	if err != nil {
		return nil, err
	}
	return newSession(ds), nil
}

// LoadCSVFile builds a session from a CSV file.
func LoadCSVFile(path string, opts LoadOptions) (*Session, error) {
	ds, err := dataset.ReadCSVFile(path, opts.csvOptions())
	if err != nil {
		return nil, err
	}
	return newSession(ds), nil
}

// LoadARFF builds a session from a Weka ARFF stream (nominal and
// numeric attributes; the class defaults to the last attribute).
func LoadARFF(r io.Reader, classAttr string) (*Session, error) {
	ds, err := dataset.ReadARFF(r, classAttr)
	if err != nil {
		return nil, err
	}
	return newSession(ds), nil
}

// LoadARFFFile builds a session from an ARFF file.
func LoadARFFFile(path, classAttr string) (*Session, error) {
	ds, err := dataset.ReadARFFFile(path, classAttr)
	if err != nil {
		return nil, err
	}
	return newSession(ds), nil
}

func newSession(ds *dataset.Dataset) *Session {
	s := &Session{raw: ds, results: engine.NewResultCache(0)}
	if ds.AllCategorical() {
		s.ds = ds
	}
	return s
}

// CallLogConfig parameterizes the synthetic cellular call log (the
// stand-in for the paper's confidential Motorola data; see DESIGN.md).
type CallLogConfig struct {
	Seed         int64
	Records      int
	NumPhones    int
	GoodDropRate float64 // drop rate of the good phone (paper: 2%)
	BadDropRate  float64 // overall drop rate of the bad phone (paper: 4%)
	NoiseAttrs   int     // class-independent attributes
}

// CallLogTruth describes the planted structure of a generated call log,
// so callers can verify what the comparator should find.
type CallLogTruth struct {
	PhoneAttr          string
	GoodPhone          string
	BadPhone           string
	DropClass          string
	DistinguishingAttr string // must rank #1 in the comparison
	SecondaryAttr      string // weaker planted effect
	ProportionalAttr   string // Fig. 2(A): expected, uninteresting
	PropertyAttr       string // Section IV.C: set aside
	NoiseAttrs         []string
}

// GenerateCallLog builds a session over a synthetic call log with
// planted ground truth.
func GenerateCallLog(cfg CallLogConfig) (*Session, CallLogTruth, error) {
	ds, gt, err := workload.CallLog(workload.CallLogConfig{
		Seed:         cfg.Seed,
		Records:      cfg.Records,
		NumPhones:    cfg.NumPhones,
		GoodDropRate: cfg.GoodDropRate,
		BadDropRate:  cfg.BadDropRate,
		NoiseAttrs:   cfg.NoiseAttrs,
	})
	if err != nil {
		return nil, CallLogTruth{}, err
	}
	truth := CallLogTruth{
		PhoneAttr:          gt.PhoneAttr,
		GoodPhone:          gt.GoodPhone,
		BadPhone:           gt.BadPhone,
		DropClass:          gt.DropClass,
		DistinguishingAttr: gt.DistinguishingAttr,
		SecondaryAttr:      gt.SecondaryAttr,
		ProportionalAttr:   gt.ProportionalAttr,
		PropertyAttr:       gt.PropertyAttr,
		NoiseAttrs:         gt.NoiseAttrs,
	}
	return newSession(ds), truth, nil
}

// CaseStudy builds the Section V.B case-study session: a 41-attribute
// call log (40 condition attributes + class).
func CaseStudy(seed int64, records int) (*Session, CallLogTruth, error) {
	return GenerateCallLog(CallLogConfig{Seed: seed, Records: records, NumPhones: 8, NoiseAttrs: 35})
}

// DrillCaseTruth describes the planted structure of a drill-down case
// workload: a decoy one-condition effect the plain comparison
// surfaces, and a two-condition effect only a drill-down ranks first.
type DrillCaseTruth struct {
	PhoneAttr string
	GoodPhone string
	BadPhone  string
	DropClass string

	// SurfaceAttr=SurfaceValue is the decoy: the attribute the
	// one-condition ranking puts on top.
	SurfaceAttr  string
	SurfaceValue string

	// JointAttrA=JointValueA & JointAttrB=JointValueB is the planted
	// conjunction; DrillDown should rank it first.
	JointAttrA  string
	JointValueA string
	JointAttrB  string
	JointValueB string
}

// GenerateDrillCase builds a session over a synthetic call log whose
// dominant planted effect needs two conditions to express (the
// drill-down demonstration workload). Zero records means the workload
// default (60000).
func GenerateDrillCase(seed int64, records int) (*Session, DrillCaseTruth, error) {
	ds, gt, err := workload.DrillLog(workload.DrillLogConfig{Seed: seed, Records: records})
	if err != nil {
		return nil, DrillCaseTruth{}, err
	}
	truth := DrillCaseTruth{
		PhoneAttr:    gt.PhoneAttr,
		GoodPhone:    gt.GoodPhone,
		BadPhone:     gt.BadPhone,
		DropClass:    gt.DropClass,
		SurfaceAttr:  gt.SurfaceAttr,
		SurfaceValue: gt.SurfaceValue,
		JointAttrA:   gt.JointAttrA,
		JointValueA:  gt.JointValueA,
		JointAttrB:   gt.JointAttrB,
		JointValueB:  gt.JointValueB,
	}
	return newSession(ds), truth, nil
}

// ManufacturingTruth describes the planted structure of the synthetic
// production log.
type ManufacturingTruth struct {
	MachineAttr        string
	GoodMachine        string
	BadMachine         string
	DefectClass        string
	DistinguishingAttr string
	BadSupplier        string
	PropertyAttr       string
	ContinuousAttrs    []string
}

// GenerateManufacturing builds a session over a synthetic production
// log with two continuous attributes (exercising the discretizer).
func GenerateManufacturing(seed int64, records int) (*Session, ManufacturingTruth, error) {
	ds, gt, err := workload.Manufacturing(workload.ManufacturingConfig{Seed: seed, Records: records})
	if err != nil {
		return nil, ManufacturingTruth{}, err
	}
	truth := ManufacturingTruth{
		MachineAttr:        gt.MachineAttr,
		GoodMachine:        gt.GoodMachine,
		BadMachine:         gt.BadMachine,
		DefectClass:        gt.DefectClass,
		DistinguishingAttr: gt.DistinguishingAttr,
		BadSupplier:        gt.BadSupplier,
		PropertyAttr:       gt.PropertyAttr,
		ContinuousAttrs:    gt.ContinuousAttrs,
	}
	return newSession(ds), truth, nil
}

// DiscretizeMethod selects a discretization strategy.
type DiscretizeMethod uint8

// Supported discretization strategies (Section V.A's discretizer).
const (
	// EntropyMDLP is the supervised Fayyad–Irani method (default).
	EntropyMDLP DiscretizeMethod = iota
	// EqualWidth bins the value range uniformly.
	EqualWidth
	// EqualFrequency bins by quantiles.
	EqualFrequency
	// ChiMerge merges adjacent intervals bottom-up until their class
	// distributions differ significantly (Kerber 1992).
	ChiMerge
)

// DiscretizeOptions configures Discretize. The zero value uses
// entropy-MDLP.
type DiscretizeOptions struct {
	Method DiscretizeMethod
	// Bins applies to EqualWidth/EqualFrequency; zero means 10.
	Bins int
	// Manual supplies explicit cut points per attribute name; attributes
	// listed here bypass Method (the paper's manual option).
	Manual map[string][]float64
}

// Discretize converts every continuous attribute to categorical
// intervals. It is a no-op when the dataset is already categorical.
// Either way it drops the cube engine and every cached result: call a
// BuildCubes variant next. This is also how a session grown by Append
// is re-cut over all its rows.
func (s *Session) Discretize(opts DiscretizeOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.raw.AllCategorical() {
		s.ds = s.raw
		s.dropEngine()
		return nil
	}
	d, err := s.discretizer(opts)
	if err != nil {
		return err
	}
	ds, cuts, err := discretize.Apply(s.raw, d)
	if err != nil {
		return err
	}
	s.ds = ds
	s.cuts = cuts
	s.dropEngine()
	return nil
}

// discretizer resolves DiscretizeOptions to a discretize.Discretizer.
func (s *Session) discretizer(opts DiscretizeOptions) (discretize.Discretizer, error) {
	var d discretize.Discretizer
	switch opts.Method {
	case EqualWidth:
		bins := opts.Bins
		if bins == 0 {
			bins = 10
		}
		d = discretize.EqualWidth{Bins: bins}
	case EqualFrequency:
		bins := opts.Bins
		if bins == 0 {
			bins = 10
		}
		d = discretize.EqualFrequency{Bins: bins}
	case ChiMerge:
		d = discretize.ChiMerge{MaxIntervals: opts.Bins}
	case EntropyMDLP:
		d = discretize.MDLP{}
	default:
		return nil, fmt.Errorf("opmap: unknown discretize method %d", opts.Method)
	}
	if len(opts.Manual) > 0 {
		d = &manualOverride{fallback: d, manual: opts.Manual, schemaAttr: s.raw}
	}
	return d, nil
}

// dropEngine discards the cube engine and fences the result cache:
// after a re-discretize or resample, counts from the old cube space
// must be neither served nor inserted.
func (s *Session) dropEngine() {
	s.src = nil
	s.results.Invalidate()
}

// manualOverride routes named attributes to manual cut points and the
// rest to the fallback discretizer. discretize.Apply calls Cuts once per
// continuous attribute; we recover which attribute via a cursor over the
// schema, mirroring Apply's iteration order.
type manualOverride struct {
	fallback   discretize.Discretizer
	manual     map[string][]float64
	schemaAttr *dataset.Dataset
	cursor     int
}

// Name implements discretize.Discretizer.
func (m *manualOverride) Name() string { return "manual+" + m.fallback.Name() }

// Cuts implements discretize.Discretizer.
func (m *manualOverride) Cuts(values []float64, classes []int32, numClasses int) ([]float64, error) {
	// Advance to the next continuous attribute in schema order.
	name := ""
	for ; m.cursor < m.schemaAttr.NumAttrs(); m.cursor++ {
		if m.schemaAttr.Attr(m.cursor).Kind == dataset.Continuous {
			name = m.schemaAttr.Attr(m.cursor).Name
			m.cursor++
			break
		}
	}
	if pts, ok := m.manual[name]; ok {
		return discretize.Manual{Points: pts}.Cuts(values, classes, numClasses)
	}
	return m.fallback.Cuts(values, classes, numClasses)
}

// Cuts returns a copy of the cut points chosen for each discretized
// attribute (nil until Discretize has run on a dataset with continuous
// attributes). Appends bin through the session's own cuts, which a
// caller's writes to the copy never reach.
func (s *Session) Cuts() map[string][]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cuts == nil {
		return nil
	}
	out := make(map[string][]float64, len(s.cuts))
	for name, c := range s.cuts {
		out[name] = slices.Clone(c)
	}
	return out
}

// BuildCubes materializes all 2-D and 3-D rule cubes over the working
// dataset (the deployed system's offline step, Section V.C).
func (s *Session) BuildCubes() error {
	return s.BuildCubesForContext(context.Background(), nil)
}

// BuildCubesContext is BuildCubes under a context. Every cube is
// counted in one shared scan of the rows, which checks ctx once per
// 2,048-row block: cancellation returns ctx.Err() within a block's
// work, with no scan goroutine left behind.
func (s *Session) BuildCubesContext(ctx context.Context) error {
	return s.BuildCubesForContext(ctx, nil)
}

// BuildCubesFor materializes cubes restricted to the named attributes
// (nil means all). Restricting mirrors the paper's domain-expert
// selection of the ~200 performance-related attributes out of 600.
func (s *Session) BuildCubesFor(attrNames []string) error {
	return s.BuildCubesForContext(context.Background(), attrNames)
}

// BuildCubesForContext is BuildCubesFor under a context.
func (s *Session) BuildCubesForContext(ctx context.Context, attrNames []string) error {
	return s.BuildCubesOptions(ctx, BuildOptions{Attrs: attrNames})
}

// BuildOptions selects the cube engine behind the session's queries.
type BuildOptions struct {
	// Lazy skips the offline materialization: cubes are counted on
	// first use, deduplicated across concurrent requests, and pair
	// cubes join the byte-budgeted cache. Every query and view works
	// in both modes; only MergeFrom needs every pair cube pinned.
	Lazy bool
	// CubeCacheBytes bounds the unpinned cubes: lazy pair cubes and
	// k ≥ 3 drill-down cubes (eager mode pins every 1-D and pair cube).
	// Zero means the engine default (64 MiB); negative means unlimited.
	CubeCacheBytes int64
	// Attrs restricts the servable attributes by name; nil means all
	// non-class attributes (the paper's domain-expert selection of the
	// ~200 performance-related attributes out of 600).
	Attrs []string
}

// BuildCubesOptions prepares the session's cube engine: counting and
// pinning every 1-D and pair cube (the paper's offline step) or, with
// opts.Lazy, leaving every cube to its first use. Either way the
// previous engine and all cached query results are dropped first.
func (s *Session) BuildCubesOptions(ctx context.Context, opts BuildOptions) error {
	defer obsv.Stage(obsv.StageBuildCubes)()
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, err := s.working()
	if err != nil {
		return err
	}
	attrs, err := attrIndexes(ds, opts.Attrs)
	if err != nil {
		return err
	}
	src, err := engine.NewLazy(ds, engine.LazyOptions{Attrs: attrs, CacheBytes: opts.CubeCacheBytes})
	if err != nil {
		return err
	}
	if !opts.Lazy {
		if err := src.PinAll(ctx); err != nil {
			return err
		}
	}
	s.dropEngine()
	s.src = src
	return nil
}

// attrIndexes resolves attribute names to dataset indexes; nil input
// stays nil (meaning "all attributes" to the cube builders).
func attrIndexes(ds *dataset.Dataset, names []string) ([]int, error) {
	var attrs []int
	for _, n := range names {
		i := ds.AttrIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("opmap: unknown attribute %q", n)
		}
		attrs = append(attrs, i)
	}
	return attrs, nil
}

// working returns the categorical working dataset, erroring with
// guidance if Discretize is still needed.
func (s *Session) working() (*dataset.Dataset, error) {
	if s.ds == nil {
		return nil, fmt.Errorf("opmap: dataset has continuous attributes; call Discretize first")
	}
	return s.ds, nil
}

// requireSource returns the cube engine, erroring if no BuildCubes
// variant has run.
func (s *Session) requireSource() (*engine.LazySource, error) {
	if s.src == nil {
		return nil, fmt.Errorf("opmap: rule cubes not built; call BuildCubes first")
	}
	return s.src, nil
}

// NumRows returns the number of records.
func (s *Session) NumRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.raw.NumRows()
}

// Attributes returns all attribute names including the class, in schema
// order.
func (s *Session) Attributes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, s.raw.NumAttrs())
	for i := range out {
		out[i] = s.raw.Attr(i).Name
	}
	return out
}

// ClassAttribute returns the name of the class attribute.
func (s *Session) ClassAttribute() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.raw.Attr(s.raw.ClassIndex()).Name
}

// Classes returns the class labels in code order.
func (s *Session) Classes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.raw.ClassDict().Labels()
}

// Values returns the value labels of a categorical attribute of the
// working dataset (discretized intervals for originally continuous
// attributes), in code order.
func (s *Session) Values(attr string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, err := s.working()
	if err != nil {
		return nil, err
	}
	i := ds.AttrIndex(attr)
	if i < 0 {
		return nil, fmt.Errorf("opmap: unknown attribute %q", attr)
	}
	return ds.Column(i).Dict.Labels(), nil
}

// ClassDistribution returns label → record count for the class
// attribute.
func (s *Session) ClassDistribution() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dist := s.raw.ClassDistribution()
	out := make(map[string]int64, len(dist))
	for c, n := range dist {
		out[s.raw.ClassDict().Label(int32(c))] = n
	}
	return out
}

// CubeCount returns the number of resident rule cubes, pinned (1-D,
// and eager pairs) and cached (lazy pairs, drill-down cubes); 0 before
// any BuildCubes variant.
func (s *Session) CubeCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.src == nil {
		return 0
	}
	st := s.src.Stats()
	return st.Pinned + st.CachedCubes
}

// satAdd and satMul are saturating int64 arithmetic: wide or
// high-cardinality schemas can push the rule-space size past any
// fixed-width integer, and a clamped count is more useful than a
// silently wrapped one.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// RuleSpaceSize returns the total number of rules the session's cube
// space represents (the count of cells of every 1-D and pair cube, as
// in Fig. 1's "24 rules"), saturating at math.MaxInt64. It is computed
// from the schema — the size of the space the engine can serve,
// whether or not the cubes are resident.
func (s *Session) RuleSpaceSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.src == nil {
		return 0
	}
	cells := func(attrs ...int) int64 {
		n := int64(s.ds.NumClasses())
		for _, a := range attrs {
			n = satMul(n, int64(max(s.ds.Cardinality(a), 1)))
		}
		return n
	}
	var total int64
	attrs := s.src.Attrs()
	for i, a := range attrs {
		total = satAdd(total, cells(a))
		for _, b := range attrs[i+1:] {
			total = satAdd(total, cells(a, b))
		}
	}
	return total
}

// EngineStats describes the cube engine's caches: build counts, the
// cube cache, and the query-result cache. The cube fields are zero
// before any BuildCubes variant.
type EngineStats struct {
	// Lazy reports whether the session's pair cubes are built on
	// demand rather than pinned up front.
	Lazy bool
	// OneDBuilds and TwoDBuilds count cube materializations, the
	// up-front counting of an eager build included.
	OneDBuilds int64
	TwoDBuilds int64
	// CubeCacheHits/Misses count k ≥ 2 lookups; the rest describe the
	// unpinned cubes the byte budget governs.
	CubeCacheHits      int64
	CubeCacheMisses    int64
	CubeCacheEvictions int64
	CubeCacheBytes     int64
	CubeCacheCubes     int
	// ResultCacheHits/Misses/Entries describe the memoized query
	// results (compare, one-vs-rest over all values, sweep, drill-down
	// and impressions).
	ResultCacheHits    int64
	ResultCacheMisses  int64
	ResultCacheEntries int
}

// EngineStats snapshots the engine's cache counters.
func (s *Session) EngineStats() EngineStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := EngineStats{}
	if s.src != nil {
		ls := s.src.Stats()
		st.Lazy = !s.src.Eager()
		st.OneDBuilds = ls.OneDBuilds
		st.TwoDBuilds = ls.TwoDBuilds
		st.CubeCacheHits = ls.Hits
		st.CubeCacheMisses = ls.Misses
		st.CubeCacheEvictions = ls.Evictions
		st.CubeCacheBytes = ls.CachedBytes
		st.CubeCacheCubes = ls.CachedCubes
	}
	rs := s.results.Stats()
	st.ResultCacheHits = rs.Hits
	st.ResultCacheMisses = rs.Misses
	st.ResultCacheEntries = rs.Entries
	return st
}
