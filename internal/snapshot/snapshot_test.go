package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/discretize"
	"opmap/internal/rulecube"
	"opmap/internal/snapshot"
)

// testDataset builds a small raw dataset: two categorical condition
// attributes, a continuous one and the class.
func testDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "phone", Kind: dataset.Categorical},
			{Name: "location", Kind: dataset.Categorical},
			{Name: "temp", Kind: dataset.Continuous},
			{Name: "dropped", Kind: dataset.Categorical},
		},
		ClassIndex: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.WithDict(0, dataset.DictionaryOf("p1", "p2", "p3"))
	b.WithDict(1, dataset.DictionaryOf("north", "south"))
	b.WithDict(3, dataset.DictionaryOf("yes", "no"))
	add := func(p, l, temp, c string, n int) {
		for i := 0; i < n; i++ {
			if err := b.AddRow([]string{p, l, temp, c}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("p1", "north", "1", "yes", 1)
	add("p1", "south", "2", "no", 9)
	add("p2", "north", "?", "yes", 4)
	add("p2", "?", "3", "no", 6)
	add("p3", "north", "1", "no", 5)
	add("p3", "south", "2", "yes", 5)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// snapshotOf builds a complete eager snapshot over raw discretized
// with cuts, as a session would take it.
func snapshotOf(t testing.TB, raw *dataset.Dataset, cuts map[string][]float64) *snapshot.Snapshot {
	t.Helper()
	ds := raw
	if !raw.AllCategorical() {
		var err error
		if ds, err = discretize.Bin(raw, cuts); err != nil {
			t.Fatal(err)
		}
	}
	store, err := rulecube.BuildStore(ds, rulecube.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &snapshot.Snapshot{
		SourceHash:  snapshot.HashBytes([]byte("test-source")),
		CreatedUnix: 1754000000,
		Mode:        snapshot.ModeEager,
		CacheBytes:  64 << 20,
		Cuts:        cuts,
		Raw:         raw,
		Store:       store,
	}
}

// testSnapshot builds a complete eager snapshot over testDataset.
func testSnapshot(t testing.TB) *snapshot.Snapshot {
	t.Helper()
	return snapshotOf(t, testDataset(t), map[string][]float64{"temp": {1.5, 2.5}})
}

// rowsOf renders every row of ds as labels, for comparing datasets.
func rowsOf(ds *dataset.Dataset) [][]string {
	out := make([][]string, ds.NumRows())
	for r := range out {
		out[r] = ds.Row(r)
	}
	return out
}

func encode(t testing.TB, snap *snapshot.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := testSnapshot(t)
	raw := encode(t, want)
	got, err := snapshot.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.SourceHash != want.SourceHash {
		t.Errorf("SourceHash = %q, want %q", got.SourceHash, want.SourceHash)
	}
	if got.CreatedUnix != want.CreatedUnix {
		t.Errorf("CreatedUnix = %d, want %d", got.CreatedUnix, want.CreatedUnix)
	}
	if got.Mode != snapshot.ModeEager || got.CacheBytes != want.CacheBytes {
		t.Errorf("Mode/CacheBytes = %v/%d, want eager/%d", got.Mode, got.CacheBytes, want.CacheBytes)
	}
	if !reflect.DeepEqual(got.Cuts, want.Cuts) {
		t.Errorf("Cuts = %v, want %v", got.Cuts, want.Cuts)
	}
	// Raw fidelity: schema, dictionaries, every row, every code width.
	if got.Raw.NumAttrs() != want.Raw.NumAttrs() || got.Raw.ClassIndex() != want.Raw.ClassIndex() {
		t.Fatalf("schema = %d attrs class %d, want %d class %d",
			got.Raw.NumAttrs(), got.Raw.ClassIndex(), want.Raw.NumAttrs(), want.Raw.ClassIndex())
	}
	for i := 0; i < want.Raw.NumAttrs(); i++ {
		if got.Raw.Attr(i) != want.Raw.Attr(i) {
			t.Errorf("attr %d = %+v, want %+v", i, got.Raw.Attr(i), want.Raw.Attr(i))
		}
		if wd := want.Raw.Column(i).Dict; wd != nil && !reflect.DeepEqual(wd.Labels(), got.Raw.Column(i).Dict.Labels()) {
			t.Errorf("attr %d labels = %v, want %v", i, got.Raw.Column(i).Dict.Labels(), wd.Labels())
		}
		if gw, ww := got.Raw.Column(i).Codes.Width(), want.Raw.Column(i).Codes.Width(); gw != ww {
			t.Errorf("attr %d code width = %d, want %d", i, gw, ww)
		}
	}
	if !reflect.DeepEqual(rowsOf(got.Raw), rowsOf(want.Raw)) {
		t.Error("restored rows differ from the original")
	}
	// The working dataset is re-derived and the cubes rebound to it.
	if !reflect.DeepEqual(rowsOf(got.Store.Dataset()), rowsOf(want.Store.Dataset())) {
		t.Error("re-derived working dataset differs from the original")
	}
	// Cube fidelity: re-serializing the rebound store must reproduce the
	// original store stream byte for byte.
	var wantStore, gotStore bytes.Buffer
	if err := rulecube.WriteStore(&wantStore, want.Store); err != nil {
		t.Fatal(err)
	}
	if err := rulecube.WriteStore(&gotStore, got.Store); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantStore.Bytes(), gotStore.Bytes()) {
		t.Error("restored store stream differs from the original")
	}
	// And a second snapshot write must be deterministic.
	if !bytes.Equal(raw, encode(t, got)) {
		t.Error("re-snapshotting the restored snapshot is not byte-identical")
	}
}

// TestRejectsVersionsBeforeRows: files of versions 1 and 2 hold cubes
// over a schema-only dataset. Read and PeekHeader refuse them with
// ErrVersion and say the file must be rebuilt; the fixtures re-stamp
// a current stream's version byte.
func TestRejectsVersionsBeforeRows(t *testing.T) {
	b := encode(t, testSnapshot(t))
	off := len(snapshot.Magic)
	if ver, n := binary.Uvarint(b[off:]); ver != snapshot.Version || n != 1 {
		t.Fatalf("version field = %d (%d bytes), want %d (1 byte)", ver, n, snapshot.Version)
	}
	for _, ver := range []byte{1, 2} {
		old := append([]byte(nil), b...)
		old[off] = ver
		binary.LittleEndian.PutUint32(old[len(old)-4:], crc32.ChecksumIEEE(old[:len(old)-4]))
		_, err := snapshot.Read(bytes.NewReader(old))
		if !errors.Is(err, snapshot.ErrVersion) || !strings.Contains(err.Error(), "rebuilt") {
			t.Errorf("version %d: Read err = %v, want ErrVersion saying the file must be rebuilt", ver, err)
		}
		if _, err := snapshot.PeekHeader(bytes.NewReader(old)); !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("version %d: PeekHeader err = %v, want ErrVersion", ver, err)
		}
	}
}

func TestPeekHeader(t *testing.T) {
	want := testSnapshot(t)
	want.Mode = snapshot.ModeLazy
	want.CacheBytes = -1
	raw := encode(t, want)
	h, err := snapshot.PeekHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != snapshot.Version {
		t.Errorf("Version = %d, want %d", h.Version, snapshot.Version)
	}
	if h.SourceHash != want.SourceHash || h.CreatedUnix != want.CreatedUnix || h.Rows != want.Raw.NumRows() {
		t.Errorf("header = %+v, want hash %q created %d rows %d", h, want.SourceHash, want.CreatedUnix, want.Raw.NumRows())
	}
	if h.Mode != snapshot.ModeLazy || h.CacheBytes != -1 {
		t.Errorf("mode/cache = %v/%d, want lazy/-1", h.Mode, h.CacheBytes)
	}
	// Peek must not need more than the header: it works on a prefix.
	if _, err := snapshot.PeekHeader(bytes.NewReader(raw[:96])); err != nil {
		t.Errorf("peek on header-sized prefix failed: %v", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	valid := encode(t, testSnapshot(t))

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 4, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
			if _, err := snapshot.Read(bytes.NewReader(valid[:cut])); err == nil {
				t.Errorf("truncation at %d bytes accepted", cut)
			}
		}
	})

	t.Run("bit-flip", func(t *testing.T) {
		// CRC32 catches every single-bit error; flips in length prefixes
		// may fail earlier with a bounds or structure error. Either way:
		// an error, never a panic, never success.
		mutated := make([]byte, len(valid))
		for i := range valid {
			copy(mutated, valid)
			mutated[i] ^= 0x10
			if _, err := snapshot.Read(bytes.NewReader(mutated)); err == nil {
				t.Fatalf("bit flip at byte %d accepted", i)
			}
		}
	})

	t.Run("wrong-magic", func(t *testing.T) {
		_, err := snapshot.Read(strings.NewReader("NOTASNAPxxxxxxxx"))
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("want bad-magic error, got %v", err)
		}
	})

	t.Run("wrong-version", func(t *testing.T) {
		var buf bytes.Buffer
		buf.WriteString(snapshot.Magic)
		var v [binary.MaxVarintLen64]byte
		buf.Write(v[:binary.PutUvarint(v[:], 99)])
		_, err := snapshot.Read(&buf)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("want version error, got %v", err)
		}
	})

	t.Run("oversized-length", func(t *testing.T) {
		// A hostile uvarint claiming a 1 GiB source-hash string must be
		// rejected by the bound, not attempted as an allocation.
		var buf bytes.Buffer
		buf.WriteString(snapshot.Magic)
		var v [binary.MaxVarintLen64]byte
		buf.Write(v[:binary.PutUvarint(v[:], snapshot.Version)])
		buf.Write(v[:binary.PutUvarint(v[:], 1<<30)])
		_, err := snapshot.Read(&buf)
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("want bounds error, got %v", err)
		}
	})

	t.Run("oversized-store-block", func(t *testing.T) {
		// Declare a store block far larger than the stream: the copy must
		// stop at EOF with a truncation error, not allocate the claim.
		idx := bytes.Index(valid, []byte("OMAPCUBE"))
		if idx < 0 {
			t.Fatal("embedded store magic not found")
		}
		var buf bytes.Buffer
		// The store length prefix immediately precedes the embedded
		// magic: its final varint byte is valid[idx-1] (high bit clear),
		// preceded by continuation bytes with the high bit set.
		start := idx - 1
		for start > 0 && valid[start-1]&0x80 != 0 {
			start--
		}
		buf.Write(valid[:start])
		var v [binary.MaxVarintLen64]byte
		buf.Write(v[:binary.PutUvarint(v[:], uint64(1)<<31)])
		buf.Write(valid[idx:])
		_, err := snapshot.Read(&buf)
		if err == nil {
			t.Error("oversized store block accepted")
		}
	})
}

func TestWriteRejectsIncomplete(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	snap := testSnapshot(t)
	snap.Store = nil
	if err := snapshot.Write(&buf, snap); err == nil {
		t.Error("snapshot without store accepted")
	}
	snap = testSnapshot(t)
	snap.Raw = nil
	if err := snapshot.Write(&buf, snap); err == nil {
		t.Error("snapshot without rows accepted")
	}
	snap = testSnapshot(t)
	snap.Mode = 0
	if err := snapshot.Write(&buf, snap); err == nil {
		t.Error("snapshot without mode accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/snap.omapsnap"
	snap := testSnapshot(t)
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Raw.NumRows() != snap.Raw.NumRows() {
		t.Errorf("rows = %d, want %d", got.Raw.NumRows(), snap.Raw.NumRows())
	}
}

func TestHashHelpers(t *testing.T) {
	if h := snapshot.HashBytes([]byte("abc")); len(h) != 64 {
		t.Errorf("HashBytes length = %d, want 64 hex chars", len(h))
	}
	if snapshot.HashBytes([]byte("a")) == snapshot.HashBytes([]byte("b")) {
		t.Error("distinct inputs hash equal")
	}
	dir := t.TempDir()
	path := dir + "/src.csv"
	writeTestFile(t, path, "a,b\n1,2\n")
	h1, err := snapshot.HashFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != snapshot.HashBytes([]byte("a,b\n1,2\n")) {
		t.Error("HashFile disagrees with HashBytes over identical content")
	}
}

func writeTestFile(t testing.TB, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
}

// rowsDataset is the rows-block fixture: a narrow column (3 labels,
// codes 0 1 2 repeating, every tenth row Missing), a wide one (256
// labels, so int32 codes), a continuous one holding NaN, and the class,
// over 20 rows.
func rowsDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "narrow", Kind: dataset.Categorical},
			{Name: "wide", Kind: dataset.Categorical},
			{Name: "temp", Kind: dataset.Continuous},
			{Name: "class", Kind: dataset.Categorical},
		},
		ClassIndex: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, 256)
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	b.WithDict(0, dataset.DictionaryOf("n0", "n1", "n2"))
	b.WithDict(1, dataset.DictionaryOf(labels...))
	b.WithDict(3, dataset.DictionaryOf("c0", "c1"))
	for r := 0; r < 20; r++ {
		narrow, temp := int32(r%3), float64(r)/2
		if r%10 == 9 {
			narrow = dataset.Missing
		}
		if r%7 == 0 {
			temp = math.NaN()
		}
		values := []float64{0, 0, temp, 0}
		if err := b.AddCodedRow([]int32{narrow, int32(r * 37 % 256), 0, int32(r % 2)}, values); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// rowsBlockCase is one hostile rewrite of the rows-block fixture and
// the text its read error must carry.
type rowsBlockCase struct {
	name string
	data []byte
	want string
}

// rowsBlockCases encodes the rows-block fixture, its cubes restricted
// to the narrow and continuous columns to keep the stream small, and
// derives a stream for each way the rows block can be wrong. Streams
// that get past the parse are re-stamped with a matching CRC, so the
// check they target — not the checksum — is what rejects them.
func rowsBlockCases(t testing.TB) (valid []byte, cases []rowsBlockCase) {
	t.Helper()
	raw := rowsDataset(t)
	cuts := map[string][]float64{"temp": {2, 8}}
	ds, err := discretize.Bin(raw, cuts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := rulecube.BuildStore(ds, rulecube.StoreOptions{Attrs: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	valid = encode(t, &snapshot.Snapshot{Mode: snapshot.ModeEager, Cuts: cuts, Raw: raw, Store: store})
	// The narrow column opens the rows block: width 1, then codes
	// 0 1 2 0 1 2 ...
	narrow := bytes.Index(valid, []byte{1, 0, 1, 2, 0, 1, 2, 0, 1})
	if narrow < 0 || bytes.Count(valid, []byte{1, 0, 1, 2, 0, 1, 2, 0, 1}) != 1 {
		t.Fatal("rows block not found in the fixture stream")
	}
	wide := narrow + 1 + 20
	if valid[wide] != 4 {
		t.Fatalf("wide column width byte = %d, want 4", valid[wide])
	}
	patch := func(off int, b ...byte) []byte {
		out := append([]byte(nil), valid...)
		copy(out[off:], b)
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
		return out
	}
	// The header's row count follows the magic, the version and the
	// source hash string and the created time.
	off := len(snapshot.Magic) + 1
	l, n := binary.Uvarint(valid[off:])
	off += n + int(l)
	_, n = binary.Uvarint(valid[off:])
	off += n
	_, n = binary.Uvarint(valid[off:])
	withRows := func(rows uint64) []byte {
		out := append([]byte(nil), valid[:off]...)
		out = binary.AppendUvarint(out, rows)
		return append(out, valid[off+n:]...)
	}
	return valid, []rowsBlockCase{
		{"truncated rows block", valid[:wide+40], `"wide"`},
		{"hostile row count", withRows(1 << 39), `"narrow"`},
		{"row count past maxRows", withRows(1<<40 + 1), "header rows"},
		{"narrow code past dictionary", patch(narrow+1, 3), `"narrow"`},
		{"wide code past dictionary", patch(wide+1, 0, 1, 0, 0), `"wide"`},
		{"width disagrees with dictionary", patch(narrow, 4), `"narrow"`},
		{"wide width disagrees with dictionary", patch(wide, 1), `"wide"`},
	}
}

// TestReadRowsBlockErrors: every malformed rows block fails with an
// error naming the attribute (the row count, declared once in the
// header, names its header field), and a hostile row count hits EOF
// rather than an allocation.
func TestReadRowsBlockErrors(t *testing.T) {
	valid, cases := rowsBlockCases(t)
	got, err := snapshot.Read(bytes.NewReader(valid))
	if err != nil {
		t.Fatalf("fixture does not read: %v", err)
	}
	if w := got.Raw.Column(1).Codes.Width(); w != 4 {
		t.Errorf("256-label column restored at width %d, want 4", w)
	}
	if v := got.Raw.Column(2).Values[0]; !math.IsNaN(v) {
		t.Errorf("NaN restored as %v", v)
	}
	for _, c := range cases {
		_, err := snapshot.Read(bytes.NewReader(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.want)
		}
	}
}

func FuzzReadSnapshot(f *testing.F) {
	snap := testSnapshot(f)
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snap); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0x40
	f.Add(mutated)
	rows, cases := rowsBlockCases(f)
	f.Add(rows)
	for _, c := range cases {
		f.Add(c.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := snapshot.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed snapshot must answer basic queries
		// without panicking.
		_ = snap.Mode.String()
		for _, a := range snap.Store.Attrs() {
			if c := snap.Store.Cube1(a); c != nil {
				_ = c.ClassMarginals()
				_ = c.RuleCount()
			}
		}
		for r := 0; r < snap.Raw.NumRows(); r++ {
			_ = snap.Raw.Row(r)
		}
	})
}
