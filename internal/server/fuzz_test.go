package server

import (
	"bytes"
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
// Handler() at /api/ingest, /api/compare and /api/drilldown, over an
// eager session whose ingest hook validates and applies each batch. No
// input may answer 500 or panic: a bad request is the client's error
// (4xx), and a request that runs out of time degrades or answers 504.
func FuzzHandlers(f *testing.F) {
	sess, truth, err := opmap.CaseStudy(1, 3000)
	if err == nil {
		err = sess.BuildCubes()
	}
	if err != nil {
		f.Fatal(err)
	}
	reg := obsv.NewRegistry()
	hook := &sessionIngest{sess: sess, apply: true}
	srv, err := New(Config{Session: sess, Ingest: hook.ingest, Metrics: reg, RequestTimeout: time.Second})
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
	f.Fuzz(func(t *testing.T, endpoint uint8, query string, body []byte) {
		method, path := http.MethodPost, "/api/ingest"
		switch endpoint % 3 {
		case 1:
			method, path = http.MethodGet, "/api/compare"
		case 2:
			path = "/api/drilldown"
		}
		r := httptest.NewRequest(method, path, bytes.NewReader(body))
		r.URL.RawQuery = query
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code == http.StatusInternalServerError {
			t.Fatalf("%s %s?%s: 500: %s", method, path, query, w.Body)
		}
		if n := reg.Counter(metricPanics).Value(); n != 0 {
			t.Fatalf("%s %s?%s: %d panics recovered", method, path, query, n)
		}
	})
}
