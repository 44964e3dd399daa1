package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opmap"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden answers under testdata/answers")

// goldenCase is one request whose 200 answer is pinned byte for byte.
type goldenCase struct {
	name  string // golden file stem under testdata/answers
	path  string // endpoint
	query url.Values
}

// TestGoldenAnswers pins the JSON bytes of every compare form through
// Handler(): pairwise, value= one-vs-rest, all_values=1, and
// /api/sweep, and of one /api/detail answer. It runs over the call log of the serve fixture (built
// afresh, since the shared fixture grows as other tests append to it)
// and over a small table with tied scores, a property attribute and a
// candidate with no present value in a pairwise compare's D1 ∪ D2.
// Run with -update to rewrite the files.
func TestGoldenAnswers(t *testing.T) {
	sess, gt, err := opmap.GenerateCallLog(opmap.CallLogConfig{Seed: 1, Records: 20000, NumPhones: 8, NoiseAttrs: 75})
	if err == nil {
		err = sess.BuildCubes()
	}
	if err != nil {
		t.Fatal(err)
	}
	phone := func(kv ...string) url.Values {
		q := url.Values{"attr": {gt.PhoneAttr}, "class": {gt.DropClass}}
		for i := 0; i < len(kv); i += 2 {
			q.Set(kv[i], kv[i+1])
		}
		return q
	}
	runGolden(t, sess, []goldenCase{
		{"calllog_pairwise", "/api/compare", phone("v1", gt.GoodPhone, "v2", gt.BadPhone, "top", "100")},
		{"calllog_one_vs_rest", "/api/compare", phone("value", gt.BadPhone, "top", "100")},
		{"calllog_all_values", "/api/compare", phone("all_values", "1")},
		{"calllog_sweep", "/api/sweep", phone()},
	})

	small, err := opmap.LoadCSV(strings.NewReader(goldenTableCSV()), opmap.LoadOptions{Class: "class"})
	if err == nil {
		err = small.BuildCubes()
	}
	if err != nil {
		t.Fatal(err)
	}
	split := func(kv ...string) url.Values {
		q := url.Values{"attr": {"A"}, "class": {"bad"}, "top": {"100"}}
		for i := 0; i < len(kv); i += 2 {
			q.Set(kv[i], kv[i+1])
		}
		return q
	}
	runGolden(t, small, []goldenCase{
		{"table_pairwise_absent", "/api/compare", split("v1", "a1", "v2", "a2")},
		{"table_pairwise", "/api/compare", split("v1", "a3", "v2", "a4")},
		{"table_one_vs_rest", "/api/compare", split("value", "a4")},
		{"table_all_values", "/api/compare", split("all_values", "1")},
		{"table_sweep", "/api/sweep", split()},
		{"table_detail", "/api/detail", url.Values{"attr": {"G"}, "class": {"bad"}}},
	})
}

// runGolden serves each case through a fresh Handler() over sess and
// compares the 200 answer's body with its golden file.
func runGolden(t *testing.T, sess *opmap.Session, cases []goldenCase) {
	t.Helper()
	srv, err := New(Config{Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, c.path+"?"+c.query.Encode(), nil))
			if w.Code != http.StatusOK {
				t.Fatalf("%s?%s: status %d: %s", c.path, c.query.Encode(), w.Code, w.Body)
			}
			file := filepath.Join("testdata", "answers", c.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, w.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if got := w.Body.Bytes(); !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := range max(len(gl), len(wl)) {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("answer differs from %s at line %d:\n got: %q\nwant: %q", file, i+1, g, w)
					}
				}
			}
		})
	}
}

// goldenTableCSV is a seeded 400-row table over split attribute A
// (a1..a4) and class bad/ok. X is missing wherever A is a1 or a2, so
// the a1-vs-a2 compare has a candidate with no present value in
// D1 ∪ D2. B = b1 raises the bad rate on a2 and a4 only; C copies B,
// and E and F are constant, so their scores tie and order by name.
// G = g1 only on ok rows, so g1's bad rate is 0 and its screened pair
// with g2 has an infinite ratio. P is a function of A, so every
// pairwise compare sets it aside as a property attribute.
func goldenTableCSV() string {
	var sb strings.Builder
	sb.WriteString("A,X,B,C,D,E,F,G,P,class\n")
	state := uint32(11)
	next := func(n int) int {
		state = state*1664525 + 1013904223
		return int(state>>8) % n
	}
	badRate := []int{10, 30, 20, 45} // percent, by A
	for r := 0; r < 400; r++ {
		a := r % 4
		x := fmt.Sprintf("x%d", next(3)+1)
		if a < 2 {
			x = "?"
		}
		b, d := next(3), next(4)
		rate := badRate[a]
		if b == 0 && a%2 == 1 {
			rate = 95
		}
		class := "ok"
		if next(100) < rate {
			class = "bad"
		}
		g := "g2"
		if class == "ok" && next(2) == 0 {
			g = "g1"
		}
		fmt.Fprintf(&sb, "a%d,%s,b%d,b%d,d%d,e,f,%s,p%d,%s\n", a+1, x, b+1, b+1, d+1, g, a+1, class)
	}
	return sb.String()
}

// TestNonFiniteAnswers checks that answers holding a value JSON cannot
// carry are still valid JSON: a pairwise compare in which a candidate
// has no present value in D1 ∪ D2 (its property ratio is NaN) and a
// detail whose screened pair has cf1 = 0 (its ratio is infinite). Both
// used to answer 200 with an empty body, because the encoder refused
// the value after the status was written.
func TestNonFiniteAnswers(t *testing.T) {
	sess, err := opmap.LoadCSV(strings.NewReader(goldenTableCSV()), opmap.LoadOptions{Class: "class"})
	if err == nil {
		err = sess.BuildCubes()
	}
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	serve := func(target string, into any) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, w.Code, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), into); err != nil {
			t.Fatalf("%s: body %q is not JSON: %v", target, w.Body, err)
		}
	}

	var cmp struct {
		Ranked []map[string]any `json:"ranked"`
	}
	serve("/api/compare?attr=A&v1=a1&v2=a2&class=bad&top=100", &cmp)
	found := false
	for _, e := range cmp.Ranked {
		if e["name"] == "X" {
			found = true
			if r, ok := e["property_ratio"]; ok {
				t.Errorf("X has no value in D1 ∪ D2, yet its property_ratio is %v", r)
			}
		}
	}
	if !found {
		t.Errorf("X missing from the ranking %v", cmp.Ranked)
	}

	var detail struct {
		Pairs []map[string]any `json:"pairs"`
	}
	serve("/api/detail?attr=G&class=bad", &detail)
	if len(detail.Pairs) != 1 {
		t.Fatalf("detail screened %d pairs, want the g1-g2 pair", len(detail.Pairs))
	}
	if r, ok := detail.Pairs[0]["ratio"]; ok || detail.Pairs[0]["cf1"] != 0.0 {
		t.Errorf("pair %v: want cf1 = 0 and no ratio, got ratio %v", detail.Pairs[0], r)
	}
}
