// Package snapshot implements the durable session snapshot: everything
// a serving session holds — the dataset as loaded (schema,
// dictionaries and every row), discretization cut points, the rule
// cubes, and engine metadata — in one versioned, checksummed file. The
// deployed Opportunity Map generates cubes offline and serves analysts
// from them the next day (Section V.C of the paper); a snapshot lets
// opmapd warm-start without re-reading or re-counting the source data.
// The header records a content hash of the source data so a loader can
// detect stale snapshots, and every write goes through
// internal/atomicfile so a crash can never clobber a good snapshot.
//
// Layout (integers varint-encoded; row values fixed-width
// little-endian):
//
//	magic "OMAPSNAP" | version | header (source hash, created, rows,
//	mode, cache bytes, ingest sequence) | schema block (attrs: name,
//	kind, dictionary) | cuts block | rows block (per attribute: a
//	width byte, then one value per row at that width) | cube block
//	(served attributes; per cube: its 1 or 2 attribute indices, its
//	total, its cells) | CRC32 trailer
//
// The rows block holds the raw dataset column by column: a categorical
// column's codes at their dataset.Codes width — 1 (255 for Missing)
// while the dictionary has at most 255 labels, else 4 (int32, -1 for
// Missing) — and a continuous column's values as 8-byte float64 bits.
// The cube block indexes the schema block: attribute indices are
// schema positions, and a cube's cell count follows from the working
// dataset's cardinalities, so the block carries no dictionary of its
// own. Cubes come in slot order — 1-D cubes by attribute, then pairs
// (a, b), a < b, by pair — each cube at most once. Readers bound every
// declared length before allocating; a file read through ReadFile
// checks each column against the bytes left and allocates it once,
// while a stream of unknown size grows columns only with bytes that
// arrive, so corrupt or hostile input fails with a clear error instead
// of driving huge allocations.
package snapshot

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"opmap/internal/atomicfile"
	"opmap/internal/dataset"
	"opmap/internal/discretize"
	"opmap/internal/rulecube"
)

const (
	// Magic is the 8-byte file signature opening every snapshot.
	Magic = "OMAPSNAP"
	// Version is the format version this package reads and writes.
	// Version 4 writes the cubes inline, indexing the schema block;
	// version 3 embedded a separate cube-store stream, and versions 1
	// and 2 held cubes over a schema-only dataset. All three are
	// rejected with ErrVersion.
	Version = 4

	// maxStringLen bounds every length-prefixed string on read (names,
	// labels, the source hash). 1 MiB is far past any real value and
	// small enough that a corrupt length cannot drive a big allocation.
	maxStringLen = 1 << 20
	// maxDictEntries bounds dictionary sizes on read: at most one entry
	// per dataset row, and 16M distinct labels is past any served data.
	maxDictEntries = 1 << 24
	// maxAttrs bounds the schema's attribute count on read.
	maxAttrs = 1 << 20
	// maxCutPoints bounds the cut points of one discretized attribute.
	maxCutPoints = 1 << 20
	// maxRows bounds the recorded row count.
	maxRows = 1 << 40
	// maxCubeCells bounds one cube's cell count on read: 1<<24 cells
	// (128 MiB of counts) is far beyond any real pair cube.
	maxCubeCells = 1 << 24
	// chunkBytes is the rows block's read unit, a multiple of every
	// column width.
	chunkBytes = 64 << 10
)

// ErrVersion marks a file in a format version this build does not
// read. Files of versions 1 to 3 must be rebuilt from source.
var ErrVersion = errors.New("snapshot: unsupported format version")

// Mode records which engine the snapshotted session ran.
type Mode uint8

const (
	// ModeEager marks a snapshot of a session with every 1-D and pair
	// cube pinned; its cube block holds them all.
	ModeEager Mode = 1
	// ModeLazy marks a snapshot of a lazy session; its cube block holds
	// the 1-D and pair cubes resident when it was taken.
	ModeLazy Mode = 2
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeEager:
		return "eager"
	case ModeLazy:
		return "lazy"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Snapshot is the in-memory form of one session snapshot.
type Snapshot struct {
	// SourceHash is the content hash of the source data (HashFile /
	// HashBytes), recorded so loaders can detect staleness. Empty means
	// unknown: never stale, never fresh — loader policy decides.
	SourceHash string
	// CreatedUnix is when the snapshot was taken (Unix seconds).
	CreatedUnix int64
	// Mode is the engine the session ran (eager or lazy).
	Mode Mode
	// CacheBytes is the engine's byte budget for unpinned cubes
	// (negative means unlimited).
	CacheBytes int64
	// IngestSeq is the WAL sequence number of the last append batch the
	// session had applied when the snapshot was taken; recovery replays
	// the WAL from IngestSeq+1. Zero for sessions never fed from a WAL.
	IngestSeq uint64
	// Cuts are the discretization cut points per continuous attribute
	// name.
	Cuts map[string][]float64
	// Raw is the session's dataset as loaded, every row of it: the
	// header's row count and the rows block. Continuous columns hold
	// their values; the working dataset is derived from them.
	Raw *dataset.Dataset
	// Attrs are the served attributes, ascending.
	Attrs []int
	// Working is the dataset the cubes count: Raw itself when Raw is
	// all categorical, else discretize.Bin(Raw, Cuts), as a cold
	// session derives it. Read sets it and binds the cubes to it; Write
	// does not read it.
	Working *dataset.Dataset

	cubes []*rulecube.Cube
}

// Cubes returns the snapshot's 1-D and pair cubes over Attrs, in slot
// order (see the package comment): all of them for ModeEager, the
// resident ones for ModeLazy. They count the working dataset.
func (s *Snapshot) Cubes() []*rulecube.Cube { return s.cubes }

// SetCubes sets the cubes Cubes returns and Write writes.
func (s *Snapshot) SetCubes(cubes []*rulecube.Cube) { s.cubes = cubes }

// Header is the cheaply readable prefix of a snapshot, enough for a
// staleness decision without decoding cubes. PeekHeader does not verify
// the trailing CRC — treat the fields as advisory until a full Read.
type Header struct {
	Version     int
	SourceHash  string
	CreatedUnix int64
	Rows        int
	Mode        Mode
	CacheBytes  int64
	IngestSeq   uint64
}

type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   *bufio.Reader
	crc uint32
	n   int64   // bytes read so far
	one [1]byte // ReadByte's CRC input, so a byte costs no allocation
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.one[0] = b
		c.crc = crc32.Update(c.crc, crc32.IEEETable, c.one[:])
		c.n++
	}
	return b, err
}

func writeUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeVarint(w io.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w io.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// readString reads one length-prefixed string, rejecting lengths over
// maxStringLen before allocating. block names the stream section for
// corrupt-file errors.
func readString(r *crcReader, block string) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", fmt.Errorf("snapshot: %s: %w", block, err)
	}
	if n > maxStringLen {
		return "", fmt.Errorf("snapshot: %s: string length %d exceeds limit %d; corrupt stream", block, n, maxStringLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("snapshot: %s: %w", block, err)
	}
	return string(buf), nil
}

func readBoundedUvarint(r *crcReader, limit uint64, block string) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %s: %w", block, err)
	}
	if v > limit {
		return 0, fmt.Errorf("snapshot: %s: value %d exceeds limit %d; corrupt stream", block, v, limit)
	}
	return v, nil
}

// Write serializes the snapshot to w. See the package comment for the
// layout. The caller supplies a complete Snapshot; Raw must be non-nil,
// Mode valid and Cubes in slot order over Attrs.
func Write(w io.Writer, snap *Snapshot) error {
	if snap == nil || snap.Raw == nil {
		return fmt.Errorf("snapshot: write needs a snapshot with a raw dataset")
	}
	if snap.Mode != ModeEager && snap.Mode != ModeLazy {
		return fmt.Errorf("snapshot: invalid mode %d", snap.Mode)
	}
	if n := len(snap.Attrs); snap.Mode == ModeEager && len(snap.Cubes()) != n+n*(n-1)/2 {
		return fmt.Errorf("snapshot: an eager snapshot needs all %d 1-D and pair cubes, got %d", n+n*(n-1)/2, len(snap.Cubes()))
	}
	cw := &crcWriter{w: bufio.NewWriter(w)}
	if _, err := io.WriteString(cw, Magic); err != nil {
		return err
	}
	if err := writeUvarint(cw, Version); err != nil {
		return err
	}

	// Header.
	ds := snap.Raw
	if err := writeString(cw, snap.SourceHash); err != nil {
		return err
	}
	if err := writeUvarint(cw, uint64(max(snap.CreatedUnix, 0))); err != nil {
		return err
	}
	if err := writeUvarint(cw, uint64(ds.NumRows())); err != nil {
		return err
	}
	if err := writeUvarint(cw, uint64(snap.Mode)); err != nil {
		return err
	}
	if err := writeVarint(cw, snap.CacheBytes); err != nil {
		return err
	}
	if err := writeUvarint(cw, snap.IngestSeq); err != nil {
		return err
	}

	// Schema block: every attribute of the raw dataset with its kind and
	// (categorical) dictionary.
	if err := writeUvarint(cw, uint64(ds.NumAttrs())); err != nil {
		return err
	}
	if err := writeUvarint(cw, uint64(ds.ClassIndex())); err != nil {
		return err
	}
	for i := 0; i < ds.NumAttrs(); i++ {
		a := ds.Attr(i)
		if err := writeString(cw, a.Name); err != nil {
			return err
		}
		if err := writeUvarint(cw, uint64(a.Kind)); err != nil {
			return err
		}
		var labels []string
		if d := ds.Column(i).Dict; d != nil {
			labels = d.Labels()
		}
		if err := writeUvarint(cw, uint64(len(labels))); err != nil {
			return err
		}
		for _, l := range labels {
			if err := writeString(cw, l); err != nil {
				return err
			}
		}
	}

	// Cuts block, in sorted attribute order for deterministic output.
	names := make([]string, 0, len(snap.Cuts))
	for n := range snap.Cuts {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := writeUvarint(cw, uint64(len(names))); err != nil {
		return err
	}
	var f64 [8]byte
	for _, n := range names {
		if err := writeString(cw, n); err != nil {
			return err
		}
		pts := snap.Cuts[n]
		if err := writeUvarint(cw, uint64(len(pts))); err != nil {
			return err
		}
		for _, p := range pts {
			binary.LittleEndian.PutUint64(f64[:], math.Float64bits(p))
			if _, err := cw.Write(f64[:]); err != nil {
				return err
			}
		}
	}

	// Rows block, one column after another.
	for i := 0; i < ds.NumAttrs(); i++ {
		if err := writeColumn(cw, ds.Column(i)); err != nil {
			return err
		}
	}

	// Cube block.
	buf := binary.AppendUvarint(nil, uint64(len(snap.Attrs)))
	for _, a := range snap.Attrs {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	buf = binary.AppendUvarint(buf, uint64(len(snap.Cubes())))
	for _, c := range snap.Cubes() {
		buf = binary.AppendUvarint(buf, uint64(c.NumDims()))
		for _, a := range c.AttrIndices() {
			buf = binary.AppendUvarint(buf, uint64(a))
		}
		buf = binary.AppendUvarint(buf, uint64(c.Total()))
		for _, n := range c.Counts() {
			buf = binary.AppendUvarint(buf, uint64(n))
		}
		if _, err := cw.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	if _, err := cw.Write(buf); err != nil {
		return err
	}

	// Trailer: CRC of everything written so far.
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], cw.crc)
	if _, err := cw.w.Write(tr[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// columnWidth is the rows-block width of a column: 8 bytes of float64
// bits for a continuous one, else its codes' dataset.Codes width for a
// dictionary of that size.
func columnWidth(kind dataset.Kind, dict *dataset.Dictionary) int {
	switch {
	case kind == dataset.Continuous:
		return 8
	case dict.Len() <= dataset.MaxNarrowLabels:
		return 1
	default:
		return 4
	}
}

// writeColumn writes one column of the rows block: its width byte, then
// its rows at that width.
func writeColumn(w io.Writer, c *dataset.Column) error {
	width := columnWidth(c.Kind, c.Dict)
	if _, err := w.Write([]byte{byte(width)}); err != nil {
		return err
	}
	if width == 1 && !c.Codes.IsWide() {
		_, err := w.Write(c.Codes.Narrow())
		return err
	}
	buf := make([]byte, 0, 64<<10)
	for r, n := 0, c.Len(); r < n; r++ {
		switch width {
		case 1:
			buf = append(buf, uint8(c.Codes.At(r))) // Missing (-1) is 255
		case 4:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Codes.At(r)))
		default:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Values[r]))
		}
		if len(buf) > cap(buf)-8 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// WriteFile writes the snapshot to path atomically: staged next to the
// destination, synced, renamed. A crash mid-write leaves any previous
// snapshot at path intact.
func WriteFile(path string, snap *Snapshot) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return Write(w, snap)
	})
}

// readHeader parses magic, version and the header fields from cr.
func readHeader(cr *crcReader) (*Header, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a snapshot file)", magic)
	}
	ver, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading version: %w", err)
	}
	if ver < Version {
		return nil, fmt.Errorf("%w %d: the file predates format %d and must be rebuilt from source", ErrVersion, ver, Version)
	}
	if ver != Version {
		return nil, fmt.Errorf("%w %d (this build reads %d)", ErrVersion, ver, Version)
	}
	hash, err := readString(cr, "header source hash")
	if err != nil {
		return nil, err
	}
	created, err := readBoundedUvarint(cr, math.MaxInt64, "header created")
	if err != nil {
		return nil, err
	}
	rows, err := readBoundedUvarint(cr, maxRows, "header rows")
	if err != nil {
		return nil, err
	}
	mode, err := readBoundedUvarint(cr, uint64(ModeLazy), "header mode")
	if err != nil {
		return nil, err
	}
	if Mode(mode) != ModeEager && Mode(mode) != ModeLazy {
		return nil, fmt.Errorf("snapshot: header mode %d is not eager(1) or lazy(2)", mode)
	}
	cacheBytes, err := binary.ReadVarint(cr)
	if err != nil {
		return nil, fmt.Errorf("snapshot: header cache bytes: %w", err)
	}
	ingestSeq, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("snapshot: header ingest sequence: %w", err)
	}
	return &Header{
		Version:     int(ver),
		SourceHash:  hash,
		CreatedUnix: int64(created),
		Rows:        int(rows),
		Mode:        Mode(mode),
		CacheBytes:  cacheBytes,
		IngestSeq:   ingestSeq,
	}, nil
}

// Read deserializes a snapshot written with Write, verifying the CRC
// trailer, rebuilding the raw dataset from the rows block and the
// working dataset from it, and binding the cubes to the working
// dataset. Corrupt, truncated or over-declared streams fail with an
// error naming the offending block or attribute; no input can make
// Read panic or allocate past the documented bounds.
func Read(r io.Reader) (*Snapshot, error) {
	return read(r, -1)
}

// read is Read over a stream of size bytes; a negative size is
// unknown.
func read(r io.Reader, size int64) (*Snapshot, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	h, err := readHeader(cr)
	if err != nil {
		return nil, err
	}

	// Schema block.
	nAttrs, err := readBoundedUvarint(cr, maxAttrs, "schema attribute count")
	if err != nil {
		return nil, err
	}
	classIdx, err := readBoundedUvarint(cr, maxAttrs, "schema class index")
	if err != nil {
		return nil, err
	}
	if classIdx >= nAttrs {
		return nil, fmt.Errorf("snapshot: class index %d outside schema of %d attributes", classIdx, nAttrs)
	}
	schema := dataset.Schema{ClassIndex: int(classIdx)}
	var cols []dataset.Column
	for i := uint64(0); i < nAttrs; i++ {
		block := fmt.Sprintf("schema attribute %d", i)
		name, err := readString(cr, block+" name")
		if err != nil {
			return nil, err
		}
		kind, err := readBoundedUvarint(cr, uint64(dataset.Continuous), block+" kind")
		if err != nil {
			return nil, err
		}
		nLabels, err := readBoundedUvarint(cr, maxDictEntries, block+" dictionary")
		if err != nil {
			return nil, err
		}
		col := dataset.Column{Kind: dataset.Kind(kind)}
		if col.Kind == dataset.Categorical {
			col.Dict = dataset.NewDictionary()
		} else if nLabels > 0 {
			return nil, fmt.Errorf("snapshot: %s: continuous attribute %q has a dictionary", block, name)
		}
		for j := uint64(0); j < nLabels; j++ {
			l, err := readString(cr, block+" dictionary")
			if err != nil {
				return nil, err
			}
			col.Dict.Code(l)
		}
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: name, Kind: col.Kind})
		cols = append(cols, col)
	}

	// Cuts block.
	nCuts, err := readBoundedUvarint(cr, maxAttrs, "cuts count")
	if err != nil {
		return nil, err
	}
	var cuts map[string][]float64
	if nCuts > 0 {
		cuts = make(map[string][]float64, nCuts)
	}
	var f64 [8]byte
	for i := uint64(0); i < nCuts; i++ {
		block := fmt.Sprintf("cuts entry %d", i)
		name, err := readString(cr, block)
		if err != nil {
			return nil, err
		}
		if a := schema.AttrIndex(name); a < 0 || schema.Attrs[a].Kind != dataset.Continuous {
			return nil, fmt.Errorf("snapshot: %s: cuts for %q, which is not a continuous attribute", block, name)
		}
		nPts, err := readBoundedUvarint(cr, maxCutPoints, block)
		if err != nil {
			return nil, err
		}
		pts := make([]float64, nPts)
		for j := range pts {
			if _, err := io.ReadFull(cr, f64[:]); err != nil {
				return nil, fmt.Errorf("snapshot: %s: %w", block, err)
			}
			pts[j] = math.Float64frombits(binary.LittleEndian.Uint64(f64[:]))
		}
		cuts[name] = pts
	}

	// Rows block.
	scratch := make([]byte, chunkBytes)
	for i := range cols {
		left := int64(-1)
		if size >= 0 {
			left = size - cr.n - 1 - 4 // less the width byte and the CRC trailer
		}
		if err := readColumn(cr, scratch, &cols[i], schema.Attrs[i].Name, h.Rows, left); err != nil {
			return nil, err
		}
	}
	raw, err := dataset.FromColumns(schema, cols)
	if err != nil {
		return nil, fmt.Errorf("snapshot: rows block: %w", err)
	}
	// The working dataset, derived as a cold session derives it: the
	// cube block's cells are sized from its cardinalities.
	ds := raw
	if !raw.AllCategorical() {
		if ds, err = discretize.Bin(raw, cuts); err != nil {
			return nil, fmt.Errorf("snapshot: cuts block: %w", err)
		}
	}
	attrs, cubes, err := readCubes(cr, ds, h.Mode)
	if err != nil {
		return nil, err
	}

	// Trailer.
	want := cr.crc
	var tr [4]byte
	if _, err := io.ReadFull(cr.r, tr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading CRC trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != want {
		return nil, fmt.Errorf("snapshot: CRC mismatch: stream %08x, computed %08x", got, want)
	}

	return &Snapshot{
		SourceHash:  h.SourceHash,
		CreatedUnix: h.CreatedUnix,
		Mode:        h.Mode,
		CacheBytes:  h.CacheBytes,
		IngestSeq:   h.IngestSeq,
		Cuts:        cuts,
		Raw:         raw,
		Attrs:       attrs,
		Working:     ds,
		cubes:       cubes,
	}, nil
}

// readCubes reads the cube block: the served attributes, ascending and
// never the class, then the cubes in slot order, each sized from ds's
// cardinalities and capped at maxCubeCells before any allocation, with
// cells that sum to its total. An eager snapshot holds every 1-D and
// pair cube.
func readCubes(cr *crcReader, ds *dataset.Dataset, mode Mode) ([]int, []*rulecube.Cube, error) {
	nAttrs := ds.NumAttrs()
	n, err := readBoundedUvarint(cr, uint64(nAttrs), "cube block attribute count")
	if err != nil {
		return nil, nil, err
	}
	served := make([]bool, nAttrs)
	attrs := make([]int, n)
	for i := range attrs {
		a, err := readBoundedUvarint(cr, uint64(nAttrs-1), "cube block served attribute")
		if err != nil {
			return nil, nil, err
		}
		if int(a) == ds.ClassIndex() {
			return nil, nil, fmt.Errorf("snapshot: cube block: served attribute %q is the class", ds.Attr(int(a)).Name)
		}
		if i > 0 && int(a) <= attrs[i-1] {
			return nil, nil, fmt.Errorf("snapshot: cube block: served attribute %q is out of order or repeated", ds.Attr(int(a)).Name)
		}
		attrs[i], served[a] = int(a), true
	}
	full := n + n*(n-1)/2
	nCubes, err := readBoundedUvarint(cr, full, "cube block cube count")
	if err != nil {
		return nil, nil, err
	}
	if mode == ModeEager && nCubes != full {
		return nil, nil, fmt.Errorf("snapshot: cube block: eager snapshot holds %d of its %d 1-D and pair cubes", nCubes, full)
	}
	var cubes []*rulecube.Cube // grows with the cubes that arrive
	var prev [2]int            // the previous cube's attributes; a 1-D cube's second is -1
	for i := range nCubes {
		block := fmt.Sprintf("cube block cube %d", i)
		dims, err := readBoundedUvarint(cr, 2, block+" dimensions")
		if err != nil {
			return nil, nil, err
		}
		if dims == 0 {
			return nil, nil, fmt.Errorf("snapshot: %s: no condition dimensions", block)
		}
		key := [2]int{-1, -1}
		cells := int64(ds.NumClasses())
		for p := range dims {
			a, err := readBoundedUvarint(cr, maxAttrs, block+" attribute")
			if err != nil {
				return nil, nil, err
			}
			if a >= uint64(nAttrs) || !served[a] {
				return nil, nil, fmt.Errorf("snapshot: %s: attribute %d is not served", block, a)
			}
			key[p] = int(a)
			if cells *= int64(max(ds.Cardinality(int(a)), 1)); cells > maxCubeCells {
				return nil, nil, fmt.Errorf("snapshot: %s: attribute %q takes the cube past %d cells", block, ds.Attr(int(a)).Name, maxCubeCells)
			}
		}
		if dims == 2 && key[0] >= key[1] || i > 0 && !slotAfter(key, prev) {
			return nil, nil, fmt.Errorf("snapshot: %s: cube over %q is out of order or repeated", block, cubeName(ds, key))
		}
		prev = key
		total, err := readBoundedUvarint(cr, math.MaxInt64, block+" total")
		if err != nil {
			return nil, nil, err
		}
		counts := make([]int64, cells)
		left := total
		for k := range counts {
			v, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, nil, fmt.Errorf("snapshot: %s: %w", block, err)
			}
			if v > left {
				return nil, nil, fmt.Errorf("snapshot: %s: cells of %q sum past the total %d", block, cubeName(ds, key), total)
			}
			left -= v
			counts[k] = int64(v)
		}
		if left != 0 {
			return nil, nil, fmt.Errorf("snapshot: %s: cells of %q sum to %d, the total says %d", block, cubeName(ds, key), total-left, total)
		}
		c, err := rulecube.FromCounts(ds, key[:dims], counts)
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: %s: %w", block, err)
		}
		cubes = append(cubes, c)
	}
	return attrs, cubes, nil
}

// slotAfter reports whether the cube over key comes after the one over
// prev in slot order: 1-D cubes (second attribute -1) by attribute,
// then pairs by pair.
func slotAfter(key, prev [2]int) bool {
	if (key[1] < 0) != (prev[1] < 0) {
		return prev[1] < 0
	}
	return key[0] > prev[0] || key[0] == prev[0] && key[1] > prev[1]
}

// cubeName names the cube over key by its attributes, "A" or "A × B".
func cubeName(ds *dataset.Dataset, key [2]int) string {
	if key[1] < 0 {
		return ds.Attr(key[0]).Name
	}
	return ds.Attr(key[0]).Name + " × " + ds.Attr(key[1]).Name
}

// readColumn reads one column of the rows block into c, whose kind and
// dictionary the schema block set: a width byte that must match them,
// then rows values at that width, through scratch. left is the number
// of bytes the stream has left, or negative when unknown: a known size
// vouches for the column, which is checked against it and allocated
// once; an unknown one grows the column only with bytes that arrive,
// so a hostile length hits EOF, not an allocation.
func readColumn(cr *crcReader, scratch []byte, c *dataset.Column, name string, rows int, left int64) error {
	width, err := cr.ReadByte()
	if err != nil {
		return fmt.Errorf("snapshot: rows block attribute %q: %w", name, err)
	}
	if want := columnWidth(c.Kind, c.Dict); int(width) != want {
		labels := 0
		if c.Dict != nil {
			labels = c.Dict.Len()
		}
		return fmt.Errorf("snapshot: rows block attribute %q: width %d, but a %s column with %d labels is stored at width %d", name, width, c.Kind, labels, want)
	}
	n := rows * int(width)
	if left >= 0 && int64(n) > left {
		return fmt.Errorf("snapshot: rows block attribute %q: %d rows need %d bytes, the file has %d left", name, rows, n, left)
	}
	capacity := n
	if left < 0 {
		capacity = min(n, chunkBytes)
	}
	switch width {
	case 1:
		b := make([]byte, 0, capacity)
		err = readChunks(cr, scratch, n, func(p []byte) { b = append(b, p...) })
		c.Codes = dataset.NarrowCodes(b)
	case 4:
		w := make([]int32, 0, capacity/4)
		err = readChunks(cr, scratch, n, func(p []byte) {
			for ; len(p) > 0; p = p[4:] {
				w = append(w, int32(binary.LittleEndian.Uint32(p)))
			}
		})
		c.Codes = dataset.WideCodes(w)
	default:
		v := make([]float64, 0, capacity/8)
		err = readChunks(cr, scratch, n, func(p []byte) {
			for ; len(p) > 0; p = p[8:] {
				v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(p)))
			}
		})
		c.Values = v
	}
	if err != nil {
		return fmt.Errorf("snapshot: rows block attribute %q: %d rows truncated: %w", name, rows, err)
	}
	return nil
}

// readChunks reads n bytes through scratch, handing each chunk to add.
func readChunks(r io.Reader, scratch []byte, n int, add func([]byte)) error {
	for n > 0 {
		p := scratch[:min(n, len(scratch))]
		if _, err := io.ReadFull(r, p); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		add(p)
		n -= len(p)
	}
	return nil
}

// ReadFile reads and fully verifies the snapshot at path. The file's
// size bounds every column before it is allocated, so each column is
// allocated once.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return read(f, fi.Size())
}

// PeekHeader reads just the snapshot header — enough for a staleness
// decision without decoding dictionaries or cubes. The CRC trailer is
// NOT verified; a loader that decides to use the snapshot must still go
// through Read.
func PeekHeader(r io.Reader) (*Header, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	return readHeader(cr)
}

// PeekFile is PeekHeader on a file path.
func PeekFile(path string) (*Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return PeekHeader(f)
}

// HashFile returns the hex SHA-256 of the file's contents — the source
// identity recorded in Snapshot.SourceHash for staleness checks.
func HashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// HashBytes returns the hex SHA-256 of b — the source identity for
// generated (demo) datasets, hashed over their configuration string.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
