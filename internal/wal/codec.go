package wal

import (
	"encoding/binary"
	"fmt"
)

// Bounds on a decoded batch. One WAL record is one ingest request; a
// corrupt payload that passed the CRC (or a hostile log file) must not
// drive an unbounded allocation.
const (
	maxBatchRows = 1 << 20
	maxRowFields = 1 << 16
	maxFieldLen  = 1 << 20
)

// EncodeRows serializes one batch of textual rows as a WAL payload:
// uvarint row count, then per row a uvarint field count followed by
// uvarint-length-prefixed field bytes. Textual form matches what the
// ingest API receives and what dataset.Builder.AddRow consumes, so a
// replayed record feeds the exact same code path as a live append.
func EncodeRows(rows [][]string) []byte {
	size := binary.MaxVarintLen64
	for _, row := range rows {
		size += binary.MaxVarintLen64
		for _, f := range row {
			size += binary.MaxVarintLen64 + len(f)
		}
	}
	buf := make([]byte, 0, size)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	put(uint64(len(rows)))
	for _, row := range rows {
		put(uint64(len(row)))
		for _, f := range row {
			put(uint64(len(f)))
			buf = append(buf, f...)
		}
	}
	return buf
}

// DecodeRows parses a payload produced by EncodeRows, with every count
// and length bounds-checked against the payload that remains. Every
// field is a substring of one string copy of the payload, so a record
// costs one string however many fields it has; a caller that keeps a
// field must copy it or hold the whole record, as
// dataset.Dictionary.Union does for the labels it registers.
func DecodeRows(payload []byte) ([][]string, error) {
	text := string(payload)
	off := 0
	next := func(what string, limit uint64) (uint64, error) {
		v, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return 0, fmt.Errorf("wal: rows payload: truncated %s at offset %d", what, off)
		}
		off += n
		if v > limit {
			return 0, fmt.Errorf("wal: rows payload: %s %d exceeds limit %d", what, v, limit)
		}
		return v, nil
	}
	nRows, err := next("row count", maxBatchRows)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, min(nRows, uint64(len(payload))))
	for i := uint64(0); i < nRows; i++ {
		nFields, err := next("field count", maxRowFields)
		if err != nil {
			return nil, err
		}
		row := make([]string, 0, min(nFields, uint64(len(payload))))
		for j := uint64(0); j < nFields; j++ {
			flen, err := next("field length", maxFieldLen)
			if err != nil {
				return nil, err
			}
			if uint64(len(payload)-off) < flen {
				return nil, fmt.Errorf("wal: rows payload: field of %d bytes overruns payload at offset %d", flen, off)
			}
			row = append(row, text[off:off+int(flen)])
			off += int(flen)
		}
		rows = append(rows, row)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("wal: rows payload: %d trailing bytes", len(payload)-off)
	}
	return rows, nil
}
