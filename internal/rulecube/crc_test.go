package rulecube

import (
	"bufio"
	"bytes"
	"hash/crc32"
	"testing"
)

// TestCRCReaderReadByte: ReadByte folds each byte into the running CRC
// without allocating (the varint decoders call it once per byte).
func TestCRCReaderReadByte(t *testing.T) {
	data := bytes.Repeat([]byte{0x81, 0x7f, 0x00, 0xff}, 1024)
	r := &crcReader{r: bufio.NewReader(bytes.NewReader(data))}
	read := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.ReadByte(); err != nil {
			t.Fatal(err)
		}
		read++
	})
	if allocs != 0 {
		t.Errorf("ReadByte allocates %.1f times per byte, want 0", allocs)
	}
	if want := crc32.ChecksumIEEE(data[:read]); r.crc != want {
		t.Errorf("crc after %d bytes = %08x, want %08x", read, r.crc, want)
	}
}
