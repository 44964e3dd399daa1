package rulecube

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"opmap/internal/dataset"
)

// Persistence for cube stores: the cube block of a session snapshot
// (internal/snapshot), which carries the rows and the cuts beside it.
// The deployed system generates cubes offline ("e.g., in the evening",
// Section V.C) and serves interactive sessions from them. The format
// is a little-endian binary stream with a magic header, a schema block
// (attribute names and dictionaries), one block per cube, and a CRC32
// trailer. Counts are varint-encoded because most cells in sparse
// high-cardinality cubes are zero or small.

const (
	storeMagic   = "OMAPCUBE"
	storeVersion = 1

	// maxCubeCells bounds a single cube's cell count on read: corrupt or
	// hostile streams must not drive huge allocations. 1<<24 cells
	// (128 MiB of counts) is far beyond any real 3-D rule cube.
	maxCubeCells = 1 << 24

	// maxStringLen bounds every length-prefixed string on read. Attribute
	// names and dictionary labels come from CSV headers and cell values;
	// 1 MiB is far beyond any real one and small enough that a corrupt
	// uvarint cannot drive a large allocation before the CRC check.
	maxStringLen = 1 << 20

	// maxDictEntries bounds dictionary sizes on read, mirroring
	// maxCubeCells: a dictionary can have at most one entry per dataset
	// row, and 16M distinct labels is past any dataset this serves.
	maxDictEntries = 1 << 24
)

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

func writeString(w io.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// readString reads one length-prefixed string, rejecting lengths over
// maxStringLen before allocating. block names the stream section being
// decoded so corrupt-file errors point at the offending block.
func readString(r *crcReader, block string) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("rulecube: %s: string length %d exceeds limit %d; corrupt stream", block, n, maxStringLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeDict(w io.Writer, d *dataset.Dictionary) error {
	labels := d.Labels()
	if err := writeUvarint(w, uint64(len(labels))); err != nil {
		return err
	}
	for _, l := range labels {
		if err := writeString(w, l); err != nil {
			return err
		}
	}
	return nil
}

// readDict reads one dictionary block, rejecting entry counts over
// maxDictEntries before any label is decoded. block names the stream
// section for error messages.
func readDict(r *crcReader, block string) (*dataset.Dictionary, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxDictEntries {
		return nil, fmt.Errorf("rulecube: %s: dictionary size %d exceeds limit %d; corrupt stream", block, n, maxDictEntries)
	}
	d := dataset.NewDictionary()
	for i := uint64(0); i < n; i++ {
		l, err := readString(r, block)
		if err != nil {
			return nil, err
		}
		d.Code(l)
	}
	return d, nil
}

// WriteStore serializes the store to w. Only cube contents and the
// metadata needed to query them travel; the raw dataset does not.
func WriteStore(w io.Writer, s *Store) error {
	cw := &crcWriter{w: bufio.NewWriter(w)}
	if _, err := io.WriteString(cw, storeMagic); err != nil {
		return err
	}
	if err := writeUvarint(cw, storeVersion); err != nil {
		return err
	}

	ds := s.ds
	// Schema block: attribute names + dicts for the store's attributes
	// and the class.
	if err := writeUvarint(cw, uint64(len(s.attrs))); err != nil {
		return err
	}
	for _, a := range s.attrs {
		if err := writeUvarint(cw, uint64(a)); err != nil {
			return err
		}
		if err := writeString(cw, ds.Attr(a).Name); err != nil {
			return err
		}
		if err := writeDict(cw, ds.Column(a).Dict); err != nil {
			return err
		}
	}
	if err := writeUvarint(cw, uint64(ds.ClassIndex())); err != nil {
		return err
	}
	if err := writeString(cw, ds.Attr(ds.ClassIndex()).Name); err != nil {
		return err
	}
	if err := writeDict(cw, ds.ClassDict()); err != nil {
		return err
	}

	writeCube := func(c *Cube) error {
		if err := writeUvarint(cw, uint64(len(c.attrIdx))); err != nil {
			return err
		}
		for _, a := range c.attrIdx {
			if err := writeUvarint(cw, uint64(a)); err != nil {
				return err
			}
		}
		if err := writeUvarint(cw, uint64(c.total)); err != nil {
			return err
		}
		if err := writeUvarint(cw, uint64(len(c.counts))); err != nil {
			return err
		}
		for _, n := range c.counts {
			if err := writeUvarint(cw, uint64(n)); err != nil {
				return err
			}
		}
		return nil
	}

	oneAttrs := s.oneDAttrs()
	if err := writeUvarint(cw, uint64(len(oneAttrs))); err != nil {
		return err
	}
	for _, a := range oneAttrs {
		if err := writeCube(s.Cube1(a)); err != nil {
			return err
		}
	}
	pairs := s.twoDPairs()
	if err := writeUvarint(cw, uint64(len(pairs))); err != nil {
		return err
	}
	for _, p := range pairs {
		if err := writeCube(s.Cube2(p[0], p[1])); err != nil {
			return err
		}
	}

	// Trailer: CRC of everything written so far.
	crc := cw.crc
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], crc)
	if _, err := cw.w.Write(buf[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// ReadStore deserializes a store previously written with WriteStore.
// The returned store answers cube queries; Dataset() returns a schema-
// only dataset with zero rows, so a reader that has the rows rebinds
// the cubes to them (AssembleStore), as a snapshot does.
func ReadStore(r io.Reader) (*Store, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(storeMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("rulecube: reading magic: %w", err)
	}
	if string(magic) != storeMagic {
		return nil, fmt.Errorf("rulecube: bad magic %q", magic)
	}
	ver, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	if ver != storeVersion {
		return nil, fmt.Errorf("rulecube: unsupported store version %d", ver)
	}

	nAttrs, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	if nAttrs > 1<<20 {
		return nil, fmt.Errorf("rulecube: attribute count %d implausible", nAttrs)
	}
	type attrMeta struct {
		idx  int
		name string
		dict *dataset.Dictionary
	}
	metas := make([]attrMeta, nAttrs)
	maxIdx := 0
	for i := range metas {
		idx, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		if idx > 1<<20 {
			return nil, fmt.Errorf("rulecube: attribute index %d implausible", idx)
		}
		name, err := readString(cr, fmt.Sprintf("attribute %d name", i))
		if err != nil {
			return nil, err
		}
		dict, err := readDict(cr, fmt.Sprintf("attribute %d dictionary", i))
		if err != nil {
			return nil, err
		}
		metas[i] = attrMeta{idx: int(idx), name: name, dict: dict}
		if int(idx) > maxIdx {
			maxIdx = int(idx)
		}
	}
	classIdx64, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	if classIdx64 > 1<<20 {
		return nil, fmt.Errorf("rulecube: class index %d implausible", classIdx64)
	}
	classIdx := int(classIdx64)
	className, err := readString(cr, "class name")
	if err != nil {
		return nil, err
	}
	classDict, err := readDict(cr, "class dictionary")
	if err != nil {
		return nil, err
	}
	for _, m := range metas {
		if m.idx == classIdx {
			return nil, fmt.Errorf("rulecube: class index %d collides with a stored attribute", classIdx)
		}
	}

	// Rebuild a schema-only dataset so the Store's metadata accessors
	// work: attributes at their original indices, padding any gaps with
	// placeholder attributes.
	width := maxIdx + 1
	if classIdx > maxIdx {
		width = classIdx + 1
	}
	attrs := make([]dataset.Attribute, width)
	for i := range attrs {
		attrs[i] = dataset.Attribute{Name: fmt.Sprintf("__unused_%d", i), Kind: dataset.Categorical}
	}
	for _, m := range metas {
		attrs[m.idx] = dataset.Attribute{Name: m.name, Kind: dataset.Categorical}
	}
	attrs[classIdx] = dataset.Attribute{Name: className, Kind: dataset.Categorical}
	b, err := dataset.NewBuilder(dataset.Schema{Attrs: attrs, ClassIndex: classIdx})
	if err != nil {
		return nil, err
	}
	for _, m := range metas {
		b.WithDict(m.idx, m.dict)
	}
	b.WithDict(classIdx, classDict)
	ds, err := b.Build()
	if err != nil {
		return nil, err
	}

	s := &Store{
		ds:   ds,
		oneD: make(map[int]*Cube),
		twoD: make(map[[2]int]*Cube),
	}
	for _, m := range metas {
		s.attrs = append(s.attrs, m.idx)
	}

	dictOf := func(idx int) (*dataset.Dictionary, string, error) {
		for _, m := range metas {
			if m.idx == idx {
				return m.dict, m.name, nil
			}
		}
		return nil, "", fmt.Errorf("rulecube: cube references unknown attribute %d", idx)
	}

	readCube := func() (*Cube, error) {
		nd, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		if nd > 16 {
			return nil, fmt.Errorf("rulecube: cube dimensionality %d implausible", nd)
		}
		c := &Cube{classDict: classDict, numClasses: classDict.Len()}
		size := c.numClasses
		if size > maxCubeCells {
			return nil, fmt.Errorf("rulecube: class count %d implausible", size)
		}
		for i := uint64(0); i < nd; i++ {
			idx, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, err
			}
			dict, name, err := dictOf(int(idx))
			if err != nil {
				return nil, err
			}
			c.attrIdx = append(c.attrIdx, int(idx))
			c.attrNames = append(c.attrNames, name)
			c.dicts = append(c.dicts, dict)
			card := dict.Len()
			if card == 0 {
				card = 1
			}
			c.dims = append(c.dims, card)
			size *= card
			if size > maxCubeCells {
				return nil, fmt.Errorf("rulecube: cube exceeds %d cells; corrupt stream", maxCubeCells)
			}
		}
		total, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		c.total = int64(total)
		nCells, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		if int(nCells) != size {
			return nil, fmt.Errorf("rulecube: cube has %d cells, expected %d", nCells, size)
		}
		c.counts = make([]int64, size)
		var sum int64
		for i := range c.counts {
			v, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, err
			}
			c.counts[i] = int64(v)
			sum += int64(v)
		}
		if sum != c.total {
			return nil, fmt.Errorf("rulecube: cube counts sum to %d, header says %d", sum, c.total)
		}
		return c, nil
	}

	nOne, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nOne; i++ {
		c, err := readCube()
		if err != nil {
			return nil, err
		}
		if len(c.attrIdx) != 1 {
			return nil, fmt.Errorf("rulecube: expected 2-D cube, got %d dims", len(c.attrIdx)+1)
		}
		s.putCube1(c.attrIdx[0], c)
	}
	nTwo, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nTwo; i++ {
		c, err := readCube()
		if err != nil {
			return nil, err
		}
		if len(c.attrIdx) != 2 {
			return nil, fmt.Errorf("rulecube: expected 3-D cube, got %d dims", len(c.attrIdx)+1)
		}
		s.putCube2(c.attrIdx[0], c.attrIdx[1], c)
	}

	// Verify the trailer CRC (computed over everything before it).
	want := cr.crc
	var buf [4]byte
	if _, err := io.ReadFull(cr.r, buf[:]); err != nil {
		return nil, fmt.Errorf("rulecube: reading CRC trailer: %w", err)
	}
	got := binary.LittleEndian.Uint32(buf[:])
	if got != want {
		return nil, fmt.Errorf("rulecube: CRC mismatch: stream %08x, computed %08x", got, want)
	}
	return s, nil
}
