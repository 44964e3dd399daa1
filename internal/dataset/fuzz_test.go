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
// (continuous) separated by ';'. comma is CSVOptions.Comma.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b,class\nx,1.5,yes\ny,2.5,no\n", int8(0), "", "", rune(0))
	f.Add("class\nyes\n", int8(0), "", "", rune(0))
	f.Add("", int8(0), "", "", rune(0))
	f.Add("a,b\n\"unterminated", int8(0), "", "", rune(0))
	f.Add("a,b,class\n?,?,?\n", int8(0), "", "", rune(0))
	f.Add("a,a,class\nx,y,z\n", int8(0), "", "", rune(0)) // duplicate attribute names
	// A column that turns non-numeric after more than maxCard distinct
	// numbers: its earlier labels must keep their first-appearance order.
	f.Add("a,class\n3,y\n1,n\n?,y\n2,n\n,y\n1,y\n4,n\nx,y\n2,n\n", int8(2), "", "", rune(0))
	f.Add("a,class\n1,y\n2,n\n3,y\n", int8(1), "", "", rune(0))
	f.Add("a,class\n1,y\n2,n\n1,y\n", int8(2), "", "", rune(0)) // exactly maxCard: categorical
	// "" and "?" inside numeric columns.
	f.Add("a,b,class\n1,,y\n,2,n\n?,3,y\n2,?,n\n3,4,y\n", int8(1), "", "", rune(0))
	f.Add("a,b,class\n1.5,,y\n2.5,?,n\n3.5,,y\n", int8(-1), "", "", rune(0))
	// Kinds overrides, on the class column too, and a parse failure.
	f.Add("a,b,class\n1,2,3\n4,5,6\n7,8,9\n", int8(1), "a=c;class=n", "", rune(0))
	f.Add("a,b,class\n1,x,3\n4,5,6\n", int8(1), "b=n", "a", rune(0))
	f.Add("class,b\nyes,1\nno,2\nyes,3\n", int8(1), "b=c", "class", rune(0))
	// Quoted fields holding newlines.
	f.Add("a,b,class\n\"x\ny\",1,yes\n\"p\n\nq\",2,no\n\"x\ny\",3,yes\n", int8(1), "", "", rune(0))
	// Exactly 255 and exactly 256 distinct labels: the widest narrow
	// column and the narrowest wide one. Then 300 distinct numbers and a
	// late non-number, whose replay into a dictionary widens mid-replay.
	f.Add(distinctLabelsCSV("v", 255, ""), int8(0), "", "", rune(0))
	f.Add(distinctLabelsCSV("v", 256, ""), int8(0), "", "", rune(0))
	f.Add(distinctLabelsCSV("", 300, "x"), int8(2), "", "", rune(0))
	// Line ends: "\r\n" lines, blank lines and blank "\r\n" lines; no
	// final newline; a lone '\r' at EOF.
	f.Add("a,b,class\r\nx,1,yes\r\n\r\ny,2,no\n\n\r\nz,3,yes\r\n", int8(1), "", "", rune(0))
	f.Add("a,b,class\nx,1,yes\ny,2,no", int8(0), "", "", rune(0))
	f.Add("a,b,class\nx,1,yes\ny,2,no\r", int8(0), "", "", rune(0))
	f.Add("a,b,class\nx,1,yes\n\r", int8(0), "", "", rune(0))
	f.Add("a,b,class\r\nx,1,yes\r\r\n", int8(0), "", "", rune(0))
	// A record longer than the loader's read buffer.
	f.Add("a,b,class\nx,1,yes\n"+strings.Repeat("v", 70<<10)+",2,no\nx,3,yes\n", int8(0), "", "", rune(0))
	// Blank lines before a quoted header, and a quote past the buffer.
	f.Add("\n\r\n\"a\",b,class\nx,1,yes\ny,2\n", int8(0), "", "", rune(0))
	f.Add("a,b,class\nx,1,yes\n"+strings.Repeat("v", 70<<10)+"\"v,2,no\n", int8(0), "", "", rune(0))
	// A '"' first on line 4: a valid quoted field holding a newline,
	// then a bare quote.
	f.Add("a,b,class\nx,1,yes\ny,2,no\n\"p\nq\",3,yes\nx,4,no\n", int8(1), "", "", rune(0))
	f.Add("a,b,class\nx,1,yes\ny,2,no\nz,3\"x,yes\nx,4,no\n", int8(1), "", "", rune(0))
	// Edge spaces, tabs and U+00A0 around labels and numbers.
	f.Add("a,b,class\n x ,\t1.5,yes\n\u00a0x,2.5\u00a0,no\nx\t, 3 ,\u00a0yes\n", int8(1), "", "", rune(0))
	f.Add(" a ,b\t,class\n ? ,\t?,yes\n,\u00a0,no\n", int8(0), "", "", rune(0))
	// Comma ';', '\t' and a multi-byte rune.
	f.Add("a;b;class\nx;1,5;yes\ny;2;no\n", int8(1), "", "", ';')
	f.Add("a\tb\tclass\nx\t1\tyes\ny\t2\tno\n", int8(1), "", "", '\t')
	f.Add("a§b§class\nx§1§yes\ny§2§no\n", int8(1), "", "", '§')
	f.Add("a,b,class\nx,1,yes\n", int8(1), "", "", '"')
	f.Add("a,b,class\nx,1,yes\n", int8(1), "", "", rune(-2))
	f.Fuzz(func(t *testing.T, input string, maxCard int8, kinds, class string, comma rune) {
		opts := CSVOptions{MaxSniffCardinality: int(maxCard), ClassAttr: class, Comma: comma}
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
