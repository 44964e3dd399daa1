package dataset

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzReadCSV hardens the loader and checks it against the buffering
// loader it replaced: arbitrary text, sniffing threshold, Kinds and
// class choice must make ReadCSV fail exactly when readCSVReference
// fails, and otherwise return the same dataset, which must answer basic
// queries — never panic.
//
// kinds lists declarations as "name=c" (categorical) or "name=n"
// (continuous) separated by ';'.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b,class\nx,1.5,yes\ny,2.5,no\n", int8(0), "", "")
	f.Add("class\nyes\n", int8(0), "", "")
	f.Add("", int8(0), "", "")
	f.Add("a,b\n\"unterminated", int8(0), "", "")
	f.Add("a,b,class\n?,?,?\n", int8(0), "", "")
	f.Add("a,a,class\nx,y,z\n", int8(0), "", "") // duplicate attribute names
	// A column that turns non-numeric after more than maxCard distinct
	// numbers: its earlier labels must keep their first-appearance order.
	f.Add("a,class\n3,y\n1,n\n?,y\n2,n\n,y\n1,y\n4,n\nx,y\n2,n\n", int8(2), "", "")
	f.Add("a,class\n1,y\n2,n\n3,y\n", int8(1), "", "")
	f.Add("a,class\n1,y\n2,n\n1,y\n", int8(2), "", "") // exactly maxCard: categorical
	// "" and "?" inside numeric columns.
	f.Add("a,b,class\n1,,y\n,2,n\n?,3,y\n2,?,n\n3,4,y\n", int8(1), "", "")
	f.Add("a,b,class\n1.5,,y\n2.5,?,n\n3.5,,y\n", int8(-1), "", "")
	// Kinds overrides, on the class column too, and a parse failure.
	f.Add("a,b,class\n1,2,3\n4,5,6\n7,8,9\n", int8(1), "a=c;class=n", "")
	f.Add("a,b,class\n1,x,3\n4,5,6\n", int8(1), "b=n", "a")
	f.Add("class,b\nyes,1\nno,2\nyes,3\n", int8(1), "b=c", "class")
	// Quoted fields holding newlines.
	f.Add("a,b,class\n\"x\ny\",1,yes\n\"p\n\nq\",2,no\n\"x\ny\",3,yes\n", int8(1), "", "")
	// Exactly 255 and exactly 256 distinct labels: the widest narrow
	// column and the narrowest wide one. Then 300 distinct numbers and a
	// late non-number, whose replay into a dictionary widens mid-replay.
	f.Add(distinctLabelsCSV("v", 255, ""), int8(0), "", "")
	f.Add(distinctLabelsCSV("v", 256, ""), int8(0), "", "")
	f.Add(distinctLabelsCSV("", 300, "x"), int8(2), "", "")
	f.Fuzz(func(t *testing.T, input string, maxCard int8, kinds, class string) {
		opts := CSVOptions{MaxSniffCardinality: int(maxCard), ClassAttr: class}
		for _, decl := range strings.Split(kinds, ";") {
			name, kind, ok := strings.Cut(decl, "=")
			if !ok {
				continue
			}
			if opts.Kinds == nil {
				opts.Kinds = map[string]Kind{}
			}
			opts.Kinds[name] = Continuous
			if kind == "c" {
				opts.Kinds[name] = Categorical
			}
		}
		ds, err := ReadCSV(strings.NewReader(input), opts)
		want, wantErr := readCSVReference(strings.NewReader(input), opts)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("ReadCSV error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if d := diffDatasets(ds, want); d != "" {
			t.Fatalf("ReadCSV differs from the reference: %s", d)
		}
		for i := range ds.cols {
			if c := &ds.cols[i]; c.Kind == Categorical && c.Codes.IsWide() != (c.Dict.Len() > MaxNarrowLabels) {
				t.Fatalf("attribute %q has %d labels and wide %v", ds.schema.Attrs[i].Name, c.Dict.Len(), c.Codes.IsWide())
			}
		}
		// Parsed datasets must answer basic queries.
		_ = ds.ClassDistribution()
		p := Describe(ds)
		if p.Rows != ds.NumRows() {
			t.Fatalf("profile rows %d != dataset rows %d", p.Rows, ds.NumRows())
		}
		for r := 0; r < ds.NumRows() && r < 10; r++ {
			if len(ds.Row(r)) != ds.NumAttrs() {
				t.Fatal("row width mismatch")
			}
		}
	})
}

// distinctLabelsCSV is a two-column CSV whose column "a" holds the n
// distinct labels prefix0..prefix{n-1}, each once, followed by one row
// holding last if last is not empty.
func distinctLabelsCSV(prefix string, n int, last string) string {
	var b strings.Builder
	b.WriteString("a,class\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s%d,c%d\n", prefix, i, i%2)
	}
	if last != "" {
		fmt.Fprintf(&b, "%s,c0\n", last)
	}
	return b.String()
}

// FuzzReadARFF hardens the ARFF loader the same way.
func FuzzReadARFF(f *testing.F) {
	f.Add("@relation t\n@attribute a {x,y}\n@attribute c {p,n}\n@data\nx,p\ny,n\n")
	f.Add("@relation t\n@attribute a numeric\n@attribute c {p}\n@data\n1.5,p\n")
	f.Add("@data\n")
	f.Add("@relation t\n@attribute 'q a' {('}\n@data\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := ReadARFF(strings.NewReader(input), "")
		if err != nil {
			return
		}
		_ = ds.ClassDistribution()
		_ = Describe(ds)
	})
}
