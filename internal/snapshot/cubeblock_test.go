package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strconv"
	"strings"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/snapshot"
)

// blockCube is one cube of a hand-built cube block.
type blockCube struct {
	attrs []int
	total uint64
	cells []uint64
}

// encodeCubeBlock encodes a cube block: the served attributes, then
// each cube's dimension count, attribute indices, total and cells.
func encodeCubeBlock(served []int, cubes []blockCube) []byte {
	b := binary.AppendUvarint(nil, uint64(len(served)))
	for _, a := range served {
		b = binary.AppendUvarint(b, uint64(a))
	}
	b = binary.AppendUvarint(b, uint64(len(cubes)))
	for _, c := range cubes {
		b = binary.AppendUvarint(b, uint64(len(c.attrs)))
		for _, a := range c.attrs {
			b = binary.AppendUvarint(b, uint64(a))
		}
		b = binary.AppendUvarint(b, c.total)
		for _, n := range c.cells {
			b = binary.AppendUvarint(b, n)
		}
	}
	return b
}

// withCubeBlock is prefix followed by the given cube block and a
// matching CRC trailer.
func withCubeBlock(prefix []byte, served []int, cubes []blockCube) []byte {
	out := append(append([]byte(nil), prefix...), encodeCubeBlock(served, cubes)...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// splitCubeBlock reads a valid stream and returns everything before its
// cube block, and the block's contents.
func splitCubeBlock(t testing.TB, valid []byte) (prefix []byte, served []int, cubes []blockCube) {
	t.Helper()
	snap, err := snapshot.Read(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range snap.Cubes() {
		bc := blockCube{attrs: c.AttrIndices(), total: uint64(c.Total())}
		for _, n := range c.Counts() {
			bc.cells = append(bc.cells, uint64(n))
		}
		cubes = append(cubes, bc)
	}
	block := encodeCubeBlock(snap.Attrs, cubes)
	end := len(valid) - 4
	if !bytes.Equal(valid[end-len(block):end], block) {
		t.Fatal("cube block not found at the end of the stream")
	}
	return valid[:end-len(block)], snap.Attrs, cubes
}

// cubeBlockCase is one hostile cube block and the text its read error
// must carry.
type cubeBlockCase struct {
	name string
	data []byte
	want string
}

// wideDataset is a dataset whose two condition attributes have 4097
// labels each: their pair cube would pass the reader's cell cap.
func wideDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Categorical},
			{Name: "b", Kind: dataset.Categorical},
			{Name: "class", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, 4097)
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	b.WithDict(0, dataset.DictionaryOf(labels...))
	b.WithDict(1, dataset.DictionaryOf(labels...))
	b.WithDict(2, dataset.DictionaryOf("yes", "no"))
	if err := b.AddCodedRow([]int32{0, 1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// cubeBlockCases derives, from the eager test snapshot (served
// attributes phone, location and binned temp; class dropped at 3), a
// stream for each way a cube block can be wrong. Every stream carries
// a matching CRC, so the check it targets is what rejects it.
func cubeBlockCases(t testing.TB) []cubeBlockCase {
	t.Helper()
	prefix, served, cubes := splitCubeBlock(t, encode(t, testSnapshot(t)))
	if len(served) != 3 || len(cubes) != 6 {
		t.Fatalf("fixture serves %v in %d cubes, want 3 attributes in 6", served, len(cubes))
	}
	// with returns the block with cube i replaced by c; a nil c drops it.
	with := func(i int, c *blockCube) []blockCube {
		out := append([]blockCube(nil), cubes[:i]...)
		if c != nil {
			out = append(out, *c)
		}
		return append(out, cubes[i+1:]...)
	}
	pair := cubes[3] // (phone, location)
	reordered := pair
	reordered.attrs = []int{1, 0}
	self := pair
	self.attrs = []int{1, 1}
	overTotal := pair
	overTotal.total++
	underTotal := pair
	underTotal.total--
	none := blockCube{total: cubes[0].total, cells: cubes[0].cells}
	three := blockCube{attrs: []int{0, 1, 2}, total: cubes[0].total, cells: cubes[0].cells}
	class := blockCube{attrs: []int{3}, total: cubes[0].total, cells: cubes[0].cells}

	wide := wideDataset(t)
	widePrefix, _, _ := splitCubeBlock(t, encode(t, &snapshot.Snapshot{Mode: snapshot.ModeLazy, Raw: wide, Attrs: []int{0, 1}}))

	return []cubeBlockCase{
		{"cube with 0 dimensions", withCubeBlock(prefix, served, with(0, &none)), "cube block cube 0: no condition dimensions"},
		{"cube with 3 dimensions", withCubeBlock(prefix, served, with(0, &three)), "cube block cube 0 dimensions"},
		{"attribute outside the served set", withCubeBlock(prefix, served, with(0, &class)), "attribute 3 is not served"},
		{"pair out of order", withCubeBlock(prefix, served, with(3, &reordered)), `cube block cube 3: cube over "location × phone" is out of order`},
		{"pair repeats its attribute", withCubeBlock(prefix, served, with(3, &self)), `"location × location" is out of order or repeated`},
		{"cube repeated", withCubeBlock(prefix, served, with(1, &cubes[0])), `cube block cube 1: cube over "phone" is out of order or repeated`},
		{"cells sum short of the total", withCubeBlock(prefix, served, with(3, &overTotal)), `cells of "phone × location" sum to`},
		{"cells sum past the total", withCubeBlock(prefix, served, with(3, &underTotal)), `cells of "phone × location" sum past the total`},
		{"served attribute is the class", withCubeBlock(prefix, []int{0, 1, 3}, cubes), `served attribute "dropped" is the class`},
		{"served attributes out of order", withCubeBlock(prefix, []int{1, 0, 2}, cubes), `served attribute "phone" is out of order`},
		{"eager snapshot missing a pair cube", withCubeBlock(prefix, served, with(5, nil)), "eager snapshot holds 5 of its 6"},
		{"cells past the cap", withCubeBlock(widePrefix, []int{0, 1}, []blockCube{{attrs: []int{0, 1}}}), `attribute "b" takes the cube past 16777216 cells`},
	}
}

// TestReadCubeBlockErrors: every malformed cube block fails with an
// error naming the cube block, the cube or the attribute at fault, and
// a cube over the cell cap fails before its cells are allocated.
func TestReadCubeBlockErrors(t *testing.T) {
	for _, c := range cubeBlockCases(t) {
		_, err := snapshot.Read(bytes.NewReader(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
		if errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("%s: a cube block error reads as a version error", c.name)
		}
	}
}
