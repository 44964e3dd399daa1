package opmap

import (
	"reflect"
	"sync"
	"testing"

	"opmap/internal/testutil"
)

// TestCompareOneVsRestAllMatchesPerValue is the session-level batch
// oracle: the all-values run must return, per value, exactly what the
// single-value CompareOneVsRest returns — on the eager and the lazy
// engine — and the two engines must agree with each other.
func TestCompareOneVsRestAllMatchesPerValue(t *testing.T) {
	eager, lazy, gt := lazyPair(t)
	var results []*OneVsRestAllResult
	for _, s := range []*Session{eager, lazy} {
		all, err := s.CompareOneVsRestAll(gt.PhoneAttr, gt.DropClass, CompareOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(all.Comparisons) == 0 {
			t.Fatal("all-values run compared nothing")
		}
		for _, cmp := range all.Comparisons {
			value := cmp.Label1
			if value == "rest" {
				value = cmp.Label2
			}
			single, err := s.CompareOneVsRest(gt.PhoneAttr, value, gt.DropClass, CompareOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cmp, single) {
				t.Errorf("value %q: batch comparison differs from CompareOneVsRest", value)
			}
		}
		results = append(results, all)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("lazy all-values result differs from eager")
	}
}

// TestCompareOneVsRestAllRestoredSession extends the oracle to a
// warm-started session: a snapshot round trip must not change the
// all-values answer.
func TestCompareOneVsRestAllRestoredSession(t *testing.T) {
	live := loadIngestSession(t, ingestRows(400), false)
	path := t.TempDir() + "/batch.omapsnap"
	if err := live.SaveSnapshotFile(path, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.CompareOneVsRestAll("Region", "fail", CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.CompareOneVsRestAll("Region", "fail", CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("restored session's all-values result differs from the live session")
	}
}

// requireCacheRoundTrip asserts query() misses the result cache on its
// first run and hits on its second.
func requireCacheRoundTrip(t *testing.T, s *Session, name string, query func() error) {
	t.Helper()
	before := s.EngineStats()
	if err := query(); err != nil {
		t.Fatal(err)
	}
	mid := s.EngineStats()
	if mid.ResultCacheMisses != before.ResultCacheMisses+1 {
		t.Fatalf("%s: first run misses %d -> %d, want +1", name, before.ResultCacheMisses, mid.ResultCacheMisses)
	}
	if err := query(); err != nil {
		t.Fatal(err)
	}
	after := s.EngineStats()
	if after.ResultCacheHits != mid.ResultCacheHits+1 {
		t.Fatalf("%s: second run hits %d -> %d, want +1", name, mid.ResultCacheHits, after.ResultCacheHits)
	}
	if after.ResultCacheMisses != mid.ResultCacheMisses {
		t.Fatalf("%s: second run missed the cache", name)
	}
}

// TestBatchInvalidationOnTouchedAttr is the cache-dependency
// regression test: ingesting a row that touches only a ranked
// attribute must invalidate the cached sweep and the cached all-values
// comparison — on the eager engine, the lazy engine, and a
// snapshot-restored session — while an entry restricted to untouched
// attributes survives until a row touches one of them, even a row whose
// class is missing.
func TestBatchInvalidationOnTouchedAttr(t *testing.T) {
	restoredSession := func(t *testing.T) *Session {
		live := loadIngestSession(t, ingestRows(300), false)
		path := t.TempDir() + "/inv.omapsnap"
		if err := live.SaveSnapshotFile(path, SnapshotOptions{}); err != nil {
			t.Fatal(err)
		}
		restored, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return restored
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *Session
	}{
		{"eager", func(t *testing.T) *Session { return loadIngestSession(t, ingestRows(300), false) }},
		{"lazy", func(t *testing.T) *Session { return loadIngestSession(t, ingestRows(300), true) }},
		{"restored", restoredSession},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			requireCacheRoundTrip(t, s, "sweep", func() error {
				_, err := s.Sweep("Region", "fail", 0)
				return err
			})
			requireCacheRoundTrip(t, s, "onevsrestall", func() error {
				_, err := s.CompareOneVsRestAll("Region", "fail", CompareOptions{})
				return err
			})
			// A run restricted to Load depends only on {Region, Load}.
			restricted := CompareOptions{Attrs: []string{"Load"}}
			requireCacheRoundTrip(t, s, "restricted", func() error {
				_, err := s.CompareOneVsRestAll("Region", "fail", restricted)
				return err
			})

			// The appended row touches only Model (a ranked attribute)
			// and the class; every other attribute is missing.
			if err := s.Append([][]string{{"?", "m2", "?", "?", "fail"}}); err != nil {
				t.Fatal(err)
			}

			// Depends-on-all entries (full sweep, unrestricted
			// all-values run) must have been invalidated: re-running
			// misses and recomputes.
			st := s.EngineStats()
			if _, err := s.Sweep("Region", "fail", 0); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CompareOneVsRestAll("Region", "fail", CompareOptions{}); err != nil {
				t.Fatal(err)
			}
			after := s.EngineStats()
			if after.ResultCacheHits != st.ResultCacheHits {
				t.Error("append touching a ranked attribute served a stale cached result")
			}
			if after.ResultCacheMisses != st.ResultCacheMisses+2 {
				t.Errorf("expected 2 recomputes after invalidation, got %d", after.ResultCacheMisses-st.ResultCacheMisses)
			}
			// The restricted entry depends on {Region, Load} only, so a
			// Model-touching append leaves it servable.
			pre := s.EngineStats()
			if _, err := s.CompareOneVsRestAll("Region", "fail", restricted); err != nil {
				t.Fatal(err)
			}
			post := s.EngineStats()
			if post.ResultCacheHits != pre.ResultCacheHits+1 {
				t.Error("entry restricted to untouched attributes was invalidated")
			}
			// A row whose class is missing counts in no cube, but it
			// still touches Load, so the restricted entry goes.
			if err := s.Append([][]string{{"?", "?", "?", "30", "?"}}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CompareOneVsRestAll("Region", "fail", restricted); err != nil {
				t.Fatal(err)
			}
			if s.EngineStats().ResultCacheHits != post.ResultCacheHits {
				t.Error("a missing-class row touching Load left the restricted entry cached")
			}
		})
	}
}

// TestConcurrentBatchAndIngest hammers the batch query paths while
// rows stream in, under -race: every query must see a consistent
// session and nothing may leak.
func TestConcurrentBatchAndIngest(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	s := loadIngestSession(t, ingestRows(200), true)
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
			for i := 0; i < 10; i++ {
				if _, err := s.Sweep("Region", "fail", 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.CompareOneVsRestAll("Region", "fail", CompareOptions{}); err != nil {
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
	// The settled session answers exactly like a batch-loaded oracle.
	oracle := loadIngestSession(t, ingestRows(400), true)
	want, err := oracle.CompareOneVsRestAll("Region", "fail", CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.CompareOneVsRestAll("Region", "fail", CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("post-concurrency all-values result diverges from batch-loaded oracle")
	}
}
