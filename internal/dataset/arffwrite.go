package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"opmap/internal/atomicfile"
)

// WriteARFF writes the dataset as a Weka ARFF relation, the round-trip
// complement of ReadARFF. Nominal domains come from the dictionaries in
// code order; names and values containing ARFF-special characters are
// single-quoted with embedded quotes escaped.
func WriteARFF(w io.Writer, ds *Dataset, relation string) error {
	bw := bufio.NewWriter(w)
	if relation == "" {
		relation = "opmap"
	}
	fmt.Fprintf(bw, "@relation %s\n\n", quoteARFF(relation))
	for i := 0; i < ds.NumAttrs(); i++ {
		a := ds.Attr(i)
		if a.Kind == Continuous {
			fmt.Fprintf(bw, "@attribute %s numeric\n", quoteARFF(a.Name))
			continue
		}
		labels := ds.Column(i).Dict.Labels()
		quoted := make([]string, len(labels))
		for j, l := range labels {
			quoted[j] = quoteARFF(l)
		}
		fmt.Fprintf(bw, "@attribute %s {%s}\n", quoteARFF(a.Name), strings.Join(quoted, ","))
	}
	fmt.Fprint(bw, "\n@data\n")
	for r := 0; r < ds.NumRows(); r++ {
		for i := 0; i < ds.NumAttrs(); i++ {
			if i > 0 {
				bw.WriteByte(',')
			}
			col := ds.Column(i)
			if col.Kind == Continuous {
				v := col.Values[r]
				if math.IsNaN(v) {
					bw.WriteString(MissingLabel)
				} else {
					bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
				}
				continue
			}
			code := col.Codes.At(r)
			if code < 0 {
				bw.WriteString(MissingLabel)
			} else {
				bw.WriteString(quoteARFF(col.Dict.Label(code)))
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteARFFFile is WriteARFF to a file path, written atomically so a
// crash or full disk mid-export cannot leave a truncated file at the
// destination.
func WriteARFFFile(path string, ds *Dataset, relation string) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return WriteARFF(w, ds, relation)
	})
}

// quoteARFF single-quotes a token when it contains characters that would
// break ARFF parsing.
func quoteARFF(s string) string {
	if s != "" && !strings.ContainsAny(s, " \t,{}%'\"") {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "\\'") + "'"
}
