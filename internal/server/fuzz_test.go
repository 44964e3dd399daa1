package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"opmap"
	"opmap/internal/obsv"
)

// FuzzHandlers drives arbitrary bodies and query strings through
// Handler() at /api/ingest, /api/compare, /api/drilldown, /api/sweep,
// /api/overview and /api/detail, over two eager sessions whose ingest
// hooks validate and apply each batch: the call log by default, and
// as dataset "table" the golden answers' small table, whose compares
// and details hold values JSON cannot carry (NaN, +Inf). No input may
// answer 500 or panic: a bad request is the client's error (4xx), and
// a request that runs out of time degrades or answers 504. Every 2xx
// body must be valid JSON.
func FuzzHandlers(f *testing.F) {
	sess, truth, err := opmap.CaseStudy(1, 3000)
	if err == nil {
		err = sess.BuildCubes()
	}
	if err != nil {
		f.Fatal(err)
	}
	table, err := opmap.LoadCSV(strings.NewReader(goldenTableCSV()), opmap.LoadOptions{Class: "class"})
	if err == nil {
		err = table.BuildCubes()
	}
	if err != nil {
		f.Fatal(err)
	}
	reg := obsv.NewRegistry()
	hooks := map[string]*sessionIngest{DefaultDatasetName: {sess: sess, apply: true}, "table": {sess: table, apply: true}}
	ingest := func(ctx context.Context, name string, rows [][]string) (uint64, error) {
		return hooks[name].ingest(ctx, name, rows)
	}
	srv, err := New(Config{
		Session:        sess,
		Sessions:       map[string]*opmap.Session{"table": table},
		Ingest:         ingest,
		Metrics:        reg,
		RequestTimeout: time.Second,
	})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	class := sess.ClassAttribute()
	var row []string
	for _, a := range sess.Attributes() {
		vals := sess.Classes()
		if a != class {
			if vals, err = sess.Values(a); err != nil {
				f.Fatal(err)
			}
		}
		row = append(row, vals[0])
	}
	batch, err := json.Marshal(map[string][][]string{"rows": {row, row}})
	if err != nil {
		f.Fatal(err)
	}
	pair := url.Values{"attr": {truth.PhoneAttr}, "v1": {truth.GoodPhone}, "v2": {truth.BadPhone}, "class": {truth.DropClass}}
	drill, err := json.Marshal(map[string]any{
		"attr": truth.PhoneAttr, "v1": truth.GoodPhone, "v2": truth.BadPhone, "class": truth.DropClass,
		"max_depth": 2, "beam": 2, "attrs": []string{truth.DistinguishingAttr, truth.SecondaryAttr},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), "", batch)
	f.Add(uint8(0), "dataset=nope", batch)
	f.Add(uint8(0), "", []byte(`{"rows":[["a"]]}`))
	f.Add(uint8(0), "", []byte(`{"rows":[[`+strings.Repeat(`"?",`, len(row)-1)+`"?"]]}`))
	f.Add(uint8(0), "", []byte(`{"rows":null}`))
	f.Add(uint8(1), pair.Encode(), []byte(nil))
	f.Add(uint8(1), pair.Encode()+"&attrs="+truth.PhoneAttr, []byte(nil))
	f.Add(uint8(1), "attr="+truth.PhoneAttr+"&class="+truth.DropClass+"&all_values=1&top=3", []byte(nil))
	f.Add(uint8(1), "attr="+truth.PhoneAttr+"&class="+truth.DropClass+"&value="+truth.BadPhone, []byte(nil))
	f.Add(uint8(1), "attr=x&class=y&v1=%zz&top=-1", []byte(nil))
	f.Add(uint8(2), "", drill)
	f.Add(uint8(2), "", []byte(`{"attr":"x","v1":"a","v2":"b","class":"c","beam":-1}`))
	f.Add(uint8(2), "", []byte(`{"attrs":["a","a"]}`))
	phone := url.Values{"attr": {truth.PhoneAttr}, "class": {truth.DropClass}}
	f.Add(uint8(3), phone.Encode()+"&max_pairs=2", []byte(nil))
	f.Add(uint8(3), "dataset=table&attr=A&class=bad", []byte(nil))
	f.Add(uint8(4), "top=3", []byte(nil))
	f.Add(uint8(4), "dataset=table&top=x", []byte(nil))
	f.Add(uint8(5), phone.Encode(), []byte(nil))
	// X has no present value where A is a1 or a2, and G = g1 has no bad
	// rows: a NaN property ratio and an infinite pair ratio.
	f.Add(uint8(1), "dataset=table&attr=A&v1=a1&v2=a2&class=bad", []byte(nil))
	f.Add(uint8(5), "dataset=table&attr=G&class=bad", []byte(nil))
	f.Add(uint8(0), "dataset=table", []byte(`{"rows":[["a1","?","b1","b1","d1","e","f","g2","p1","bad"]]}`))
	f.Fuzz(func(t *testing.T, endpoint uint8, query string, body []byte) {
		method, path := http.MethodPost, "/api/ingest"
		switch endpoint % 6 {
		case 1:
			method, path = http.MethodGet, "/api/compare"
		case 2:
			path = "/api/drilldown"
		case 3:
			method, path = http.MethodGet, "/api/sweep"
		case 4:
			method, path = http.MethodGet, "/api/overview"
		case 5:
			method, path = http.MethodGet, "/api/detail"
		}
		r := httptest.NewRequest(method, path, bytes.NewReader(body))
		r.URL.RawQuery = query
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code == http.StatusInternalServerError {
			t.Fatalf("%s %s?%s: 500: %s", method, path, query, w.Body)
		}
		if w.Code/100 == 2 && !json.Valid(w.Body.Bytes()) {
			t.Fatalf("%s %s?%s: %d with a body that is not JSON: %q", method, path, query, w.Code, w.Body)
		}
		if n := reg.Counter(metricPanics).Value(); n != 0 {
			t.Fatalf("%s %s?%s: %d panics recovered", method, path, query, n)
		}
	})
}
