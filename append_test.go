package opmap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/obsv"
	"opmap/internal/testutil"
	"opmap/internal/wal"
)

// ingestRows generates deterministic mixed-schema rows (two
// categorical attributes, two continuous, categorical class). Every
// label and class value appears within the first dozen rows, so a
// prefix load and a full load build identical dictionaries.
func ingestRows(n int) [][]string {
	regions := []string{"north", "south", "east", "west"}
	models := []string{"m1", "m2", "m3"}
	classes := []string{"ok", "fail", "slow"}
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		temp := fmt.Sprintf("%d.5", (i*37)%100)
		load := fmt.Sprintf("%d", (i*53)%80)
		if i%23 == 7 {
			temp = "?" // exercise missing continuous values
		}
		cls := classes[i%len(classes)]
		if (i*31)%7 == 0 {
			cls = classes[(i/3)%len(classes)]
		}
		rows[i] = []string{regions[i%len(regions)], models[i%len(models)], temp, load, cls}
	}
	return rows
}

func ingestCSV(rows [][]string) string {
	var b strings.Builder
	b.WriteString("Region,Model,Temp,Load,Outcome\n")
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// manualCuts pins the discretization so a prefix load and a full load
// bin continuous values identically — the precondition for exact
// batch ≡ streamed equivalence.
var manualCuts = DiscretizeOptions{Manual: map[string][]float64{
	"Temp": {25, 50, 75},
	"Load": {20, 40, 60},
}}

func loadIngestSession(t *testing.T, rows [][]string, lazy bool) *Session {
	t.Helper()
	s, err := LoadCSV(strings.NewReader(ingestCSV(rows)), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Discretize(manualCuts); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubesOptions(context.Background(), BuildOptions{Lazy: lazy}); err != nil {
		t.Fatal(err)
	}
	return s
}

// queryTriple runs the three cached query families the oracle test
// compares across sessions.
func queryTriple(t *testing.T, s *Session) (*Comparison, *SweepResult, *Impressions) {
	t.Helper()
	cmp, err := s.Compare("Region", "north", "south", "fail", CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := s.Sweep("Region", "fail", 0)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := s.Impressions(ImpressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cmp, sw, imp
}

// TestAppendMatchesBatchLoad is the oracle equivalence test: loading N
// rows at once and loading a prefix then streaming the rest through
// Append must produce identical Compare, Sweep and Impressions
// results, and identical counts in every cube the streamed session
// holds, in both eager and lazy engines. The last batch brings 300 new
// Model labels, taking that dictionary past dataset.MaxNarrowLabels.
func TestAppendMatchesBatchLoad(t *testing.T) {
	all := ingestRows(700)
	for i, row := range all[400:] {
		row[1] = fmt.Sprintf("w%d", i)
	}
	for _, lazy := range []bool{false, true} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		t.Run(name, func(t *testing.T) {
			oracle := loadIngestSession(t, all, lazy)
			streamed := loadIngestSession(t, all[:300], lazy)
			if lazy {
				// Materialize some cubes before the appends so both the
				// resident and not-yet-resident paths are exercised.
				if _, err := streamed.Compare("Region", "north", "south", "fail", CompareOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			// Stream the tail in uneven batches.
			for _, batch := range [][][]string{all[300:301], all[301:350], all[350:400], all[400:700]} {
				if err := streamed.Append(batch); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := streamed.NumRows(), oracle.NumRows(); got != want {
				t.Fatalf("streamed rows = %d, want %d", got, want)
			}
			if models, _ := streamed.Values("Model"); len(models) <= dataset.MaxNarrowLabels {
				t.Fatalf("Model has %d labels, want more than %d", len(models), dataset.MaxNarrowLabels)
			}
			oc, os, oi := queryTriple(t, oracle)
			sc, ss, si := queryTriple(t, streamed)
			if !reflect.DeepEqual(oc, sc) {
				t.Errorf("Compare diverges:\noracle   %+v\nstreamed %+v", oc, sc)
			}
			if !reflect.DeepEqual(os, ss) {
				t.Errorf("Sweep diverges:\noracle   %+v\nstreamed %+v", os, ss)
			}
			if !reflect.DeepEqual(oi, si) {
				t.Errorf("Impressions diverge:\noracle   %+v\nstreamed %+v", oi, si)
			}
			resident := streamed.src.ResidentCubes()
			if len(resident) == 0 {
				t.Fatal("the streamed session holds no cubes")
			}
			for _, c := range resident {
				want, err := oracle.src.CubeN(context.Background(), c.AttrIndices())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(c.Counts(), want.Counts()) || c.Total() != want.Total() {
					t.Errorf("cube %v: streamed counts (total %d) differ from the oracle's (total %d)", c.AttrNames(), c.Total(), want.Total())
				}
			}
		})
	}
}

// TestAppendToRestoredSession: a session restored from an eager
// snapshot of a continuous-schema dataset keeps ingesting correctly —
// appended numeric values bin through the remembered cuts instead of
// registering raw strings like "37.5" as new interval-dictionary
// labels, so the restored session's answers match a session that
// never went through the snapshot round trip.
func TestAppendToRestoredSession(t *testing.T) {
	all := ingestRows(400)
	oracle := loadIngestSession(t, all, false)
	live := loadIngestSession(t, all[:300], false)
	path := t.TempDir() + "/s.omapsnap"
	if err := live.SaveSnapshotFile(path, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Stream the tail (which includes missing continuous values) in
	// uneven batches, as WAL replay would after a crash.
	for _, batch := range [][][]string{all[300:301], all[301:350], all[350:400]} {
		if err := restored.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := restored.NumRows(), oracle.NumRows(); got != want {
		t.Fatalf("restored rows = %d, want %d", got, want)
	}
	// The interval dictionaries must not have grown raw numeric labels.
	for _, attr := range []string{"Temp", "Load"} {
		ov, err := oracle.Values(attr)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := restored.Values(attr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ov, rv) {
			t.Errorf("%s domain diverged after restored-session appends:\noracle   %v\nrestored %v", attr, ov, rv)
		}
	}
	// A restored session still rejects unparseable numeric fields for
	// interval attributes, exactly like the live session it replaces.
	if err := restored.Append([][]string{{"north", "m1", "not-a-number", "20", "ok"}}); err == nil {
		t.Error("restored session accepted an unparseable numeric value")
	}
	oc, os, oi := queryTriple(t, oracle)
	rc, rs, ri := queryTriple(t, restored)
	if !reflect.DeepEqual(oc, rc) {
		t.Errorf("Compare diverges:\noracle   %+v\nrestored %+v", oc, rc)
	}
	if !reflect.DeepEqual(os, rs) {
		t.Errorf("Sweep diverges:\noracle   %+v\nrestored %+v", os, rs)
	}
	if !reflect.DeepEqual(oi, ri) {
		t.Errorf("Impressions diverge:\noracle   %+v\nrestored %+v", oi, ri)
	}
}

// TestAppendSeqSnapshotConsistency: AppendSeq applies a batch and
// records its WAL sequence atomically with respect to snapshots —
// every snapshot taken while batches stream in reports a row count
// exactly consistent with its ingest sequence, so recovery from any
// checkpoint neither drops nor double-applies a batch.
func TestAppendSeqSnapshotConsistency(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	const baseRows, batchRows = 100, 10
	s := loadIngestSession(t, ingestRows(baseRows), false)
	extra := ingestRows(400)[baseRows:400]

	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b*batchRows < len(extra); b++ {
			rows := extra[b*batchRows : (b+1)*batchRows]
			if err := s.AppendSeq(context.Background(), rows, uint64(b+1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	dir := t.TempDir()
	for i := 0; ; i++ {
		path := fmt.Sprintf("%s/c%d.omapsnap", dir, i)
		if err := s.SaveSnapshotFile(path, SnapshotOptions{}); err != nil {
			t.Fatal(err)
		}
		info, err := PeekSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := baseRows + int(info.IngestSeq)*batchRows; info.Rows != want {
			t.Fatalf("snapshot rows = %d at ingest seq %d, want %d (apply and sequence tore)", info.Rows, info.IngestSeq, want)
		}
		select {
		case <-done:
			if got := s.IngestSeq(); got != uint64(len(extra)/batchRows) {
				t.Errorf("final ingest seq = %d, want %d", got, len(extra)/batchRows)
			}
			return
		default:
		}
	}
}

// TestAppendValidation: a malformed batch is rejected atomically —
// nothing about the session changes, and the error names the row. A
// batch whose last row has a bad number leaves every resident cube's
// counts, the row count and (through AppendSeq) the ingest sequence
// where they were.
func TestAppendValidation(t *testing.T) {
	s := loadIngestSession(t, ingestRows(50), false)
	rowsBefore, cubesBefore := s.NumRows(), s.CubeCount()

	if err := s.Append(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	err := s.Append([][]string{{"north", "m1", "10"}})
	if err == nil || !strings.Contains(err.Error(), "schema has 5") {
		t.Errorf("short row error = %v", err)
	}
	err = s.Append([][]string{
		{"north", "m1", "10", "20", "ok"},
		{"north", "m1", "not-a-number", "20", "ok"},
	})
	if err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Errorf("bad number error = %v", err)
	}
	if s.NumRows() != rowsBefore || s.CubeCount() != cubesBefore {
		t.Errorf("failed batches mutated the session: rows %d→%d cubes %d→%d",
			rowsBefore, s.NumRows(), cubesBefore, s.CubeCount())
	}

	if err := s.AppendSeq(context.Background(), ingestRows(60)[50:], 7); err != nil {
		t.Fatal(err)
	}
	counts := func() [][]int64 {
		var out [][]int64
		for _, c := range s.src.ResidentCubes() {
			out = append(out, slices.Clone(c.Counts()))
		}
		return out
	}
	before, rowsBefore := counts(), s.NumRows()
	bad := ingestRows(80)[60:]
	bad[len(bad)-1][3] = "12abc"
	for i := range bad[:len(bad)-1] {
		bad[i][0] = fmt.Sprintf("new-region-%d", i) // labels the batch would register
	}
	err = s.AppendSeq(context.Background(), bad, 8)
	if err == nil || !strings.Contains(err.Error(), "row 19") || !strings.Contains(err.Error(), `"Load"`) {
		t.Errorf("bad last row error = %v", err)
	}
	if !reflect.DeepEqual(counts(), before) || s.NumRows() != rowsBefore {
		t.Errorf("a batch rejected at its last row changed cube counts or rows (%d→%d)", rowsBefore, s.NumRows())
	}
	if regions, _ := s.Values("Region"); len(regions) != 4 {
		t.Errorf("a rejected batch registered labels: Region has %v", regions)
	}
	if got := s.IngestSeq(); got != 8 {
		t.Errorf("IngestSeq after a rejected AppendSeq = %d, want 8", got)
	}
}

// TestAppendContextCancelled: a context done before the batch starts
// to apply returns its error with nothing applied.
func TestAppendContextCancelled(t *testing.T) {
	s := loadIngestSession(t, ingestRows(50), false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.AppendContext(ctx, ingestRows(60)[50:]); !errors.Is(err, context.Canceled) {
		t.Fatalf("AppendContext error = %v, want context.Canceled", err)
	}
	if got := s.NumRows(); got != 50 {
		t.Errorf("a cancelled batch changed the rows: %d, want 50", got)
	}
}

// TestCutsReturnsCopy: writing to the map Cuts returns, or to one of
// its slices, leaves the cuts appends bin through unchanged.
func TestCutsReturnsCopy(t *testing.T) {
	s := loadIngestSession(t, ingestRows(50), false)
	cuts := s.Cuts()
	cuts["Temp"][0] = -1e9
	cuts["Load"] = []float64{1e9}
	if err := s.Append([][]string{{"north", "m1", "10", "30", "ok"}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Cuts(); !reflect.DeepEqual(got, manualCuts.Manual) {
		t.Errorf("session cuts = %v, want %v", got, manualCuts.Manual)
	}
	// 10 falls in Temp's first interval and 30 in Load's second under
	// the session's cuts; under the caller's writes, in Temp's second
	// and Load's first.
	last := s.NumRows() - 1
	for attr, want := range map[string]string{"Temp": "(-inf,25]", "Load": "(20,40]"} {
		a := s.ds.AttrIndex(attr)
		if got := s.ds.Label(last, a); got != want {
			t.Errorf("appended %s binned to %s, want %s", attr, got, want)
		}
	}
}

// TestAppendRejectsMalformedNumbers: a continuous value that is not a
// number as a whole ("12abc" once read as 12) is an error naming the
// attribute on every append path — Session.Append, ValidateBatch,
// Builder.AddRow — and a rejected session batch
// leaves rows, the ingest sequence and query answers as they were.
func TestAppendRejectsMalformedNumbers(t *testing.T) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{
		{Name: "Region", Kind: dataset.Categorical},
		{Name: "Temp", Kind: dataset.Continuous},
		{Name: "Outcome", Kind: dataset.Categorical},
	}, ClassIndex: 2}
	for _, v := range []string{"12abc", "-3,5", "1.5.5", "1e3x", " 7", "7 ", "0x"} {
		t.Run(v, func(t *testing.T) {
			s := loadIngestSession(t, ingestRows(50), false)
			rowsBefore, seqBefore := s.NumRows(), s.IngestSeq()
			cmpBefore, _, _ := queryTriple(t, s)
			bad := []string{"north", "m1", v, "20", "ok"}
			if err := s.ValidateBatch([][]string{bad}); err == nil || !strings.Contains(err.Error(), `"Temp"`) {
				t.Errorf("ValidateBatch error = %v, want one naming Temp", err)
			}
			if err := s.Append([][]string{{"north", "m1", "10", "20", "ok"}, bad}); err == nil || !strings.Contains(err.Error(), `"Temp"`) {
				t.Errorf("Append error = %v, want one naming Temp", err)
			}
			cmpAfter, _, _ := queryTriple(t, s)
			if s.NumRows() != rowsBefore || s.IngestSeq() != seqBefore || !reflect.DeepEqual(cmpAfter, cmpBefore) {
				t.Errorf("rejected batch changed the session: rows %d→%d", rowsBefore, s.NumRows())
			}

			b, err := dataset.NewBuilder(schema)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.AddRow([]string{"north", v, "ok"}); err == nil || !strings.Contains(err.Error(), `"Temp"`) {
				t.Errorf("Builder.AddRow error = %v, want one naming Temp", err)
			}
		})
	}
	// Well-formed numbers in every notation ParseFloat takes still pass.
	s := loadIngestSession(t, ingestRows(50), false)
	for _, v := range []string{"1e3", "-3.5", ".5", "7", "?", ""} {
		if err := s.ValidateBatch([][]string{{"north", "m1", v, "20", "ok"}}); err != nil {
			t.Errorf("ValidateBatch rejected %q: %v", v, err)
		}
	}
}

// TestAppendInvalidatesTouchedCache: an append evicts cached results
// that depend on a touched attribute (all of them here — every row
// touches every attribute) and the re-run answer reflects the new
// rows rather than the stale cache.
func TestAppendInvalidatesTouchedCache(t *testing.T) {
	s := loadIngestSession(t, ingestRows(200), false)
	before, _, _ := queryTriple(t, s)
	if err := s.Append(ingestRows(300)[200:300]); err != nil {
		t.Fatal(err)
	}
	after, err := s.Compare("Region", "north", "south", "fail", CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Error("Compare after 100 appended rows returned the pre-append (cached) result")
	}
	oracle := loadIngestSession(t, ingestRows(300), false)
	want, _, _ := queryTriple(t, oracle)
	if !reflect.DeepEqual(want, after) {
		t.Errorf("post-append Compare diverges from batch oracle:\noracle %+v\ngot    %+v", want, after)
	}
}

// TestAppendWALReplayRowCounts streams 200 batches of 50 rows through
// the durable ingest path a daemon takes — wal.Append, then AppendSeq —
// closes the log and replays it into a fresh session. Exact counts pin
// the path end to end: 200 records replayed, 10,100 rows and ingest
// sequence 200 on both sessions, and identical compare, sweep and
// overview answers.
func TestAppendWALReplayRowCounts(t *testing.T) {
	const baseRows, batches, batchRows = 100, 200, 50
	all := ingestRows(baseRows + batches*batchRows)
	ctx := context.Background()
	dir := t.TempDir()

	live := loadIngestSession(t, all[:baseRows], false)
	// NoSync: the test checks counts, not durability, and 200 fsyncs
	// would dominate its run time.
	lg, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		rows := all[baseRows+b*batchRows : baseRows+(b+1)*batchRows]
		seq, err := lg.Append(wal.EncodeRows(rows))
		if err != nil {
			t.Fatal(err)
		}
		if err := live.AppendSeq(ctx, rows, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := loadIngestSession(t, all[:baseRows], false)
	lg, err = wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	counter := obsv.Default().Counter(wal.ReplayedRecordsCounterName)
	before := counter.Value()
	n, err := lg.Replay(1, func(seq uint64, payload []byte) error {
		rows, err := wal.DecodeRows(payload)
		if err != nil {
			return err
		}
		return replayed.AppendSeq(ctx, rows, seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != batches {
		t.Errorf("Replay delivered %d records, want %d", n, batches)
	}
	if d := counter.Value() - before; d != batches {
		t.Errorf("%s moved by %d, want %d", wal.ReplayedRecordsCounterName, d, batches)
	}
	for name, s := range map[string]*Session{"live": live, "replayed": replayed} {
		if got, want := s.NumRows(), baseRows+batches*batchRows; got != want {
			t.Errorf("%s: NumRows = %d, want %d", name, got, want)
		}
		if got := s.IngestSeq(); got != batches {
			t.Errorf("%s: IngestSeq = %d, want %d", name, got, batches)
		}
	}
	lc, ls, li := queryTriple(t, live)
	rc, rs, ri := queryTriple(t, replayed)
	if !reflect.DeepEqual(lc, rc) {
		t.Errorf("Compare diverges:\nlive     %+v\nreplayed %+v", lc, rc)
	}
	if !reflect.DeepEqual(ls, rs) {
		t.Errorf("Sweep diverges:\nlive     %+v\nreplayed %+v", ls, rs)
	}
	if !reflect.DeepEqual(li, ri) {
		t.Errorf("overview (Impressions) diverges:\nlive     %+v\nreplayed %+v", li, ri)
	}
}

// TestIngestSeqRoundTrip: the ingest sequence survives a snapshot
// round trip (OMAPSNAP v2) and shows in both the peeked header and
// the reloaded session.
func TestIngestSeqRoundTrip(t *testing.T) {
	rows := ingestRows(90)
	s := loadIngestSession(t, rows[:80], false)
	if err := s.AppendSeq(context.Background(), rows[80:], 42); err != nil {
		t.Fatal(err)
	}
	if got := s.IngestSeq(); got != 42 {
		t.Fatalf("IngestSeq = %d", got)
	}
	path := t.TempDir() + "/s.omapsnap"
	if err := s.SaveSnapshotFile(path, SnapshotOptions{SourceHash: "h"}); err != nil {
		t.Fatal(err)
	}
	info, err := PeekSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 4 || info.IngestSeq != 42 {
		t.Errorf("peeked version=%d ingestSeq=%d, want 4/42", info.Version, info.IngestSeq)
	}
	restored, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.IngestSeq(); got != 42 {
		t.Errorf("restored IngestSeq = %d, want 42", got)
	}
}

// TestConcurrentAppendAndQuery hammers the session with concurrent
// appends and reads under -race: every query must see a consistent
// session (no partial row, no stale engine) and nothing may leak.
func TestConcurrentAppendAndQuery(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	s := loadIngestSession(t, ingestRows(200), false)
	extra := ingestRows(400)[200:400]

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i+10 <= len(extra); i += 10 {
			if err := s.Append(extra[i : i+10]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := s.Compare("Region", "north", "south", "fail", CompareOptions{}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Impressions(ImpressionOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.NumRows(); got != 400 {
		t.Errorf("rows after concurrent appends = %d, want 400", got)
	}
	oracle := loadIngestSession(t, ingestRows(400), false)
	oc, _, _ := queryTriple(t, oracle)
	sc, _, _ := queryTriple(t, s)
	if !reflect.DeepEqual(oc, sc) {
		t.Errorf("post-concurrency Compare diverges from oracle:\noracle %+v\ngot    %+v", oc, sc)
	}
}

// TestBreakdownWhileIngestGrowsLabels derives breakdowns and renders
// the per-value view of answers while appends grow the ranked
// attribute's dictionary: an answer reads labels from a view taken when
// it was scored, never from the growing dictionary.
func TestBreakdownWhileIngestGrowsLabels(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	var b strings.Builder
	b.WriteString("Region,Site,Outcome\n")
	for i := 0; i < 120; i++ {
		outcome := "ok"
		if i%3 == 0 || (i%2 == 1 && i%5 == 0) {
			outcome = "fail"
		}
		fmt.Fprintf(&b, "%s,s%d,%s\n", []string{"north", "south"}[i%2], i%4, outcome)
	}
	s, err := LoadCSV(strings.NewReader(b.String()), LoadOptions{Class: "Outcome"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := s.Append([][]string{{"north", fmt.Sprintf("new%d", i), "fail"}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				cmp, err := s.Compare("Region", "north", "south", "fail", CompareOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				rows, ok := cmp.Breakdown("Site")
				if !ok || len(rows) < 4 {
					t.Errorf("Site breakdown: %d rows, ok=%v", len(rows), ok)
					return
				}
				if err := cmp.RenderAttribute(io.Discard, "Site"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cmp, err := s.Compare("Region", "north", "south", "fail", CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := cmp.Breakdown("Site")
	if len(rows) != 44 || rows[43].Label != "new39" || rows[43].N1+rows[43].N2 != 1 {
		t.Errorf("Site breakdown after ingest: %d rows, last %+v", len(rows), rows[len(rows)-1])
	}
}

// TestValidateBatchMatchesAppend: ValidateBatch accepts exactly the
// batches Append accepts and rejects the others with Append's error
// text, for short and long rows and bad numbers in either continuous
// column, wherever in the batch they sit.
func TestValidateBatchMatchesAppend(t *testing.T) {
	batch := func(edit func(rows [][]string)) [][]string {
		rows := ingestRows(60)[50:]
		edit(rows)
		return rows
	}
	for name, rows := range map[string][][]string{
		"good":           batch(func([][]string) {}),
		"empty":          {},
		"short first":    batch(func(r [][]string) { r[0] = r[0][:3] }),
		"short last":     batch(func(r [][]string) { r[9] = r[9][:4] }),
		"empty row":      batch(func(r [][]string) { r[4] = nil }),
		"long":           batch(func(r [][]string) { r[2] = append(r[2], "extra") }),
		"bad Temp":       batch(func(r [][]string) { r[3][2] = "12abc" }),
		"bad Load last":  batch(func(r [][]string) { r[9][3] = "1.5.5" }),
		"bad both":       batch(func(r [][]string) { r[1][3] = " 7"; r[1][2] = "x" }),
		"bad after long": batch(func(r [][]string) { r[5] = append(r[5], "x"); r[6][2] = "0x" }),
	} {
		t.Run(name, func(t *testing.T) {
			s := loadIngestSession(t, ingestRows(50), false)
			verr := s.ValidateBatch(rows)
			aerr := s.Append(rows)
			if (verr == nil) != (aerr == nil) || (verr != nil && verr.Error() != aerr.Error()) {
				t.Errorf("ValidateBatch = %v, Append = %v", verr, aerr)
			}
		})
	}
}

// TestValidateBatchAllocs: validating a batch builds nothing; a 100-row
// batch costs at most two allocations.
func TestValidateBatchAllocs(t *testing.T) {
	s, _, err := GenerateCallLog(CallLogConfig{Seed: 1, Records: 100})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, s.raw.NumRows())
	for r := range rows {
		for a := 0; a < s.raw.NumAttrs(); a++ {
			rows[r] = append(rows[r], s.raw.Label(r, a))
		}
	}
	if err := s.ValidateBatch(rows); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = s.ValidateBatch(rows) }); n > 2 {
		t.Errorf("ValidateBatch made %.0f allocations per 100-row batch, want ≤ 2", n)
	}
}
