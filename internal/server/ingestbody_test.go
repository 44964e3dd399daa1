package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"opmap"
	"opmap/internal/workload"
)

// benchIngest builds perfbench's ingest shape at a test size: a session
// over base call-log rows (8 phone models, 75 noise attributes and two
// continuous columns, perfbench's schema) and the body of a further
// 100-row batch, encoded with json.Marshal as perfbench encodes its
// batches. The session is loaded but neither discretized nor cubed:
// ValidateBatch, which is all a batch needs to be acknowledged by the
// stub hooks here, reads only the schema.
func benchIngest(tb testing.TB, base int) (*opmap.Session, []byte) {
	tb.Helper()
	const batchRows = 100
	ds, _, err := workload.CallLog(workload.CallLogConfig{Seed: 1, Records: base + batchRows, NumPhones: 8, NoiseAttrs: 75})
	if err != nil {
		tb.Fatal(err)
	}
	class := ds.ClassIndex()
	var header []string
	for a := 0; a < ds.NumAttrs(); a++ {
		if a != class {
			header = append(header, ds.Attr(a).Name)
		}
	}
	header = append(header, "Signal-dBm", "Call-Duration-s", ds.Attr(class).Name)
	rows := make([][]string, ds.NumRows())
	for r := range rows {
		row := make([]string, 0, len(header))
		for a := 0; a < ds.NumAttrs(); a++ {
			if a != class {
				row = append(row, ds.Label(r, a))
			}
		}
		dbm, secs := -110+float64(r%37)*0.7, float64(r%211)*1.3
		rows[r] = append(row, fmt.Sprintf("%.1f", dbm), fmt.Sprintf("%.1f", secs), ds.Label(r, class))
	}
	var csv strings.Builder
	csv.WriteString(strings.Join(header, ",") + "\n")
	for _, row := range rows[:base] {
		csv.WriteString(strings.Join(row, ",") + "\n")
	}
	sess, err := opmap.LoadCSV(strings.NewReader(csv.String()), opmap.LoadOptions{Class: ds.Attr(class).Name})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(map[string][][]string{"rows": rows[base:]})
	if err != nil {
		tb.Fatal(err)
	}
	return sess, body
}

// referenceDecode is the endpoint's reference semantics: encoding/json
// decoding the body as a stream, as the handler did before it had a
// one-pass path.
func referenceDecode(body []byte) ([][]string, error) {
	var req ingestRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Rows, err
}

// FuzzDecodeIngestBody checks the one-pass ingest decoder against
// encoding/json. The endpoint's decode (decodeIngestBody) and the
// reference both fail with the same error or both give DeepEqual
// rows; and whenever decodeRows itself accepts a body, json.Unmarshal
// accepts it too, with DeepEqual rows, so the one-pass path never takes
// a body whose meaning is not exactly the one encoding/json gives it.
func FuzzDecodeIngestBody(f *testing.F) {
	_, bench := benchIngest(f, 100)
	for _, seed := range []string{
		string(bench),
		`{"rows": [["a","b"],["c","d"]]}`,
		" \t\n{ \"rows\" :\r[ [ \"a\" , \"?\" ] , [ ] ] } \n",
		`{"rows":[]}`,
		`{"rows":[[]]}`,
		`{"ROWS":[["a"]]}`,
		`{"Rows":[["a"]],"rows":[["b"]]}`,
		`{"rows":[["a"]],"rows":[["b"]]}`,
		`{"rows":[["a"]],"extra":1}`,
		`{"other":[["a"]]}`,
		`{"rows":null}`,
		`{"rows":[null,["a"]]}`,
		`{"rows":[["a",null]]}`,
		`{"rows":[["a\"b"]]}`,
		`{"rows":[["café"]]}`,
		`{"rows":[["caf\u00e9"]]}`,
		`{"rows":[["\u003cb\u003e"]]}`,
		"{\"rows\":[[\"a\xffb\"]]}",
		"{\"rows\":[[\"tab\there\"]]}",
		`{"rows":[["a"]]}junk`,
		`{"rows":[["a"]]} {"rows":[["b"]]}`,
		`{"rows":[[1]]}`,
		`{"rows":[["a"],]}`,
		`{"rows":[["a"]]`,
		`[["a"]]`,
		`{}`,
		``,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := referenceDecode(body)
		got, err := decodeIngestBody(io.NopCloser(bytes.NewReader(body)), int64(len(body)))
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decode error %v, encoding/json error %v", err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("decode error %q, encoding/json error %q", err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decode rows %q, encoding/json rows %q", got, want)
		}
		rows, ok := decodeRows(body)
		if !ok {
			return
		}
		var req ingestRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("decodeRows accepted a body json.Unmarshal rejects: %v", err)
		}
		if !reflect.DeepEqual(rows, req.Rows) {
			t.Fatalf("decodeRows rows %q, json.Unmarshal rows %q", rows, req.Rows)
		}
	})
}

// TestReadBodyOverCap checks that a body past maxIngestBody fails as
// encoding/json over http.MaxBytesReader fails, with a valid prefix or
// without one, and that a complete value followed by more than the cap
// still decodes, as it did when the decoder read the stream directly.
func TestReadBodyOverCap(t *testing.T) {
	pad := strings.Repeat(" ", maxIngestBody)
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"padded value", `{"rows":[["a"]]}` + pad, true},
		{"padded array", `{"rows":[["a"],` + pad + `["b"]]}`, false},
		{"huge field", `{"rows":[["` + pad + `"]]}`, false},
	} {
		for _, size := range []int64{int64(len(tc.body)), -1} {
			rows, err := decodeIngestBody(io.NopCloser(strings.NewReader(tc.body)), size)
			if tc.ok {
				if err != nil || !reflect.DeepEqual(rows, [][]string{{"a"}}) {
					t.Errorf("%s (size %d): rows %q, err %v", tc.name, size, rows, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "request body too large") {
				t.Errorf("%s (size %d): err %v, want request body too large", tc.name, size, err)
			}
		}
	}
}

// sessionIngest is a Config.Ingest stub over a session: it validates a
// batch as opmapd's hook does before logging it, hands out the next
// sequence number and, when apply is set, applies the batch with
// AppendSeq, as opmapd's apply queue does, before acknowledging it.
type sessionIngest struct {
	sess  *opmap.Session
	apply bool
	seq   atomic.Uint64
}

func (si *sessionIngest) ingest(_ context.Context, _ string, rows [][]string) (uint64, error) {
	if err := si.sess.ValidateBatch(rows); err != nil {
		return 0, err
	}
	seq := si.seq.Add(1)
	if si.apply {
		if err := si.sess.AppendSeq(context.Background(), rows, seq); err != nil {
			return 0, err
		}
	}
	return seq, nil
}
