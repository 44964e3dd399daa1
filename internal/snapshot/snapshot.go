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
//	width byte, then one value per row at that width) | store block
//	(length-prefixed rulecube stream) | CRC32 trailer
//
// The rows block holds the raw dataset column by column: a categorical
// column's codes at their dataset.Codes width — 1 (255 for Missing)
// while the dictionary has at most 255 labels, else 4 (int32, -1 for
// Missing) — and a continuous column's values as 8-byte float64 bits.
// The store block reuses the rulecube.WriteStore wire format verbatim,
// length-prefixed so the embedded stream's own buffering cannot consume
// snapshot bytes past the block. Readers bound every declared length
// before allocating, and grow row buffers only with bytes that arrive,
// so corrupt or hostile streams fail with a clear error instead of
// driving huge allocations.
package snapshot

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
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
	// Version 3 added the rows block; versions 1 and 2 held cubes over a
	// schema-only dataset and are rejected with ErrVersion.
	Version = 3

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
	// maxStoreBytes bounds the embedded cube-store block.
	maxStoreBytes = int64(1) << 32
)

// ErrVersion marks a file in a format version this build does not
// read. Files of versions 1 and 2 predate the rows block: they must be
// rebuilt from source.
var ErrVersion = errors.New("snapshot: unsupported format version")

// Mode records which engine the snapshotted session ran.
type Mode uint8

const (
	// ModeEager marks a snapshot of a session with every 1-D and pair
	// cube pinned; its store holds them all.
	ModeEager Mode = 1
	// ModeLazy marks a snapshot of a lazy session; its store holds the
	// 1-D and pair cubes resident when it was taken.
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
	// Store holds the cubes: all 1-D and pair cubes for ModeEager, the
	// resident ones for ModeLazy. They count the working dataset; on
	// read they are rebound to it — Raw itself when Raw is all
	// categorical, else discretize.Bin(Raw, Cuts), as a cold session
	// derives it — and Store.Dataset() returns it.
	Store *rulecube.Store
}

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
	one [1]byte // ReadByte's CRC input, so a byte costs no allocation
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.one[0] = b
		c.crc = crc32.Update(c.crc, crc32.IEEETable, c.one[:])
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
// layout. The caller supplies a complete Snapshot; Raw and Store must
// be non-nil and Mode valid.
func Write(w io.Writer, snap *Snapshot) error {
	if snap == nil || snap.Raw == nil || snap.Store == nil {
		return fmt.Errorf("snapshot: write needs a snapshot with raw dataset and store")
	}
	if snap.Mode != ModeEager && snap.Mode != ModeLazy {
		return fmt.Errorf("snapshot: invalid mode %d", snap.Mode)
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

	// Store block, length-prefixed so the reader can hand the embedded
	// stream exactly its own bytes.
	var sb bytes.Buffer
	if err := rulecube.WriteStore(&sb, snap.Store); err != nil {
		return err
	}
	if err := writeUvarint(cw, uint64(sb.Len())); err != nil {
		return err
	}
	if _, err := cw.Write(sb.Bytes()); err != nil {
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
		return nil, fmt.Errorf("%w %d: the file predates the rows block (version %d) and must be rebuilt from source", ErrVersion, ver, Version)
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
// working dataset from it, and rebinding the cube store to the working
// dataset. Corrupt, truncated or over-declared streams fail with an
// error naming the offending block or attribute; no input can make
// Read panic or allocate past the documented bounds.
func Read(r io.Reader) (*Snapshot, error) {
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
	for i := range cols {
		if err := readColumn(cr, &cols[i], schema.Attrs[i].Name, h.Rows); err != nil {
			return nil, err
		}
	}

	// Store block: buffer exactly the declared bytes so the embedded
	// stream's own buffered reader cannot consume past the block.
	storeLen, err := readBoundedUvarint(cr, uint64(maxStoreBytes), "store block length")
	if err != nil {
		return nil, err
	}
	sb, err := readBytes(cr, int(storeLen))
	if err != nil {
		return nil, fmt.Errorf("snapshot: store block truncated: declared %d bytes: %w", storeLen, err)
	}
	stored, err := rulecube.ReadStore(bytes.NewReader(sb))
	if err != nil {
		return nil, fmt.Errorf("snapshot: store block: %w", err)
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

	raw, err := dataset.FromColumns(schema, cols)
	if err != nil {
		return nil, fmt.Errorf("snapshot: rows block: %w", err)
	}
	// The working dataset, derived as a cold session derives it; the
	// store's cubes are rebound to it so labels have one source of truth
	// (the store block's own reconstruction is partial).
	ds := raw
	if !raw.AllCategorical() {
		if ds, err = discretize.Bin(raw, cuts); err != nil {
			return nil, fmt.Errorf("snapshot: cuts block: %w", err)
		}
	}
	store, err := rulecube.AssembleStore(ds, stored.Attrs(), stored.Cubes())
	if err != nil {
		return nil, fmt.Errorf("snapshot: store does not match the rows: %w", err)
	}

	return &Snapshot{
		SourceHash:  h.SourceHash,
		CreatedUnix: h.CreatedUnix,
		Mode:        h.Mode,
		CacheBytes:  h.CacheBytes,
		IngestSeq:   h.IngestSeq,
		Cuts:        cuts,
		Raw:         raw,
		Store:       store,
	}, nil
}

// readColumn reads one column of the rows block into c, whose kind and
// dictionary the schema block set: a width byte that must match them,
// then rows values at that width.
func readColumn(cr *crcReader, c *dataset.Column, name string, rows int) error {
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
	b, err := readBytes(cr, rows*int(width))
	if err != nil {
		return fmt.Errorf("snapshot: rows block attribute %q: %d rows truncated: %w", name, rows, err)
	}
	switch width {
	case 1:
		c.Codes = dataset.NarrowCodes(b)
	case 4:
		w := make([]int32, rows)
		for r := range w {
			w[r] = int32(binary.LittleEndian.Uint32(b[4*r:]))
		}
		c.Codes = dataset.WideCodes(w)
	default:
		c.Values = make([]float64, rows)
		for r := range c.Values {
			c.Values[r] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*r:]))
		}
	}
	return nil
}

// readBytes reads exactly n bytes. Its buffer starts at 64 KiB and
// doubles only when full, so it grows only with bytes that arrive: a
// hostile length hits EOF, not an allocation.
func readBytes(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, 64<<10))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, 2*len(buf))-len(buf))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// ReadFile reads and fully verifies the snapshot at path.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
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
