package opmap

import (
	"context"
	"fmt"

	"opmap/internal/dataset"
	"opmap/internal/discretize"
)

// This file is the streaming-ingestion entry point of the session: an
// appended batch folds into the raw dataset, the discretized working
// copy, and every resident cube incrementally — no rebuild — and then
// surgically invalidates only the cached query results that depended
// on an attribute the batch touched. Durability lives a layer up: the
// opmapd daemon writes each batch to the WAL before calling Append, so
// the session only has to keep its in-memory state exactly consistent
// with what a replay of that WAL would reproduce.

// Append adds rows (textual values, one per attribute in schema order,
// "?" for missing) to the session. See AppendContext.
func (s *Session) Append(rows [][]string) error {
	return s.AppendContext(context.Background(), rows)
}

// AppendContext appends a batch of rows, incrementally maintaining the
// working dataset and all resident cubes (eager store and lazy engine
// alike — non-resident lazy cubes simply materialize later over the
// grown dataset). Cached Compare/Sweep/Impressions results that depend
// on a touched attribute are invalidated; untouched entries survive.
//
// The batch applies whole or not at all. It is parsed, which is its
// validation, before anything mutates, so a malformed batch leaves the
// session untouched. Cancellation is honoured before the batch starts
// to apply, never mid-batch: a ctx that is done by then returns
// ctx.Err() with nothing applied. Numeric values bin through the
// current cuts: an append never moves them. To re-cut a grown session,
// call Discretize and then a BuildCubes variant.
func (s *Session) AppendContext(ctx context.Context, rows [][]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(ctx, rows)
}

// AppendSeq applies one durable WAL batch: AppendContext plus
// recording seq as the session's ingest sequence, in one critical
// section. A concurrent snapshot (which runs under the read lock)
// therefore can never capture the batch's rows without the sequence
// that makes recovery skip them: a sequence recorded apart from the
// apply would leave a window where a checkpoint taken between the two
// double-applies the batch after a crash. The sequence advances even
// when the session rejects the batch: Append validates before
// mutating and the rejection is deterministic, so replay reproduces
// the same decision and must not re-attempt it. Callers must not
// cancel ctx (the WAL apply path passes an uncancellable context): a
// batch cancelled before it applies would still be marked consumed.
func (s *Session) AppendSeq(ctx context.Context, rows [][]string, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.appendLocked(ctx, rows)
	s.ingestSeq = seq
	return err
}

// appendLocked is the body shared by the Append variants. Callers hold
// the write lock. The batch grows the session the way MergeFrom grows
// it by another session's rows: a dictionary union and a remapped
// append, raw dataset first, then the working dataset, whose
// categorical columns are raw's own and whose binned columns take the
// batch binned through the session's cuts. The engine then folds the
// appended row range from the working dataset's columns.
func (s *Session) appendLocked(ctx context.Context, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	batch, err := s.parseBatch(rows)
	if err != nil {
		return err
	}
	// work is the batch as the working dataset holds it; nil while a
	// continuous schema awaits Discretize and only raw grows.
	var work *dataset.Dataset
	switch {
	case s.ds == s.raw:
		work = batch
	case s.ds != nil:
		if work, err = discretize.Bin(batch, s.cuts); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Neither append below can fail on a parsed batch; should one, the
	// engine goes rather than serve counts that disagree with the rows.
	from := s.raw.NumRows()
	if err := appendBatch(s.raw, batch); err != nil {
		s.dropEngine()
		return err
	}
	if work == nil {
		return nil
	}
	if s.ds != s.raw {
		if err := appendBatch(s.ds, work); err != nil {
			s.dropEngine()
			return err
		}
	}
	if s.src != nil {
		s.src.IngestRows(from)
	}
	if touched := presentAttrs(work); len(touched) > 0 {
		s.results.BumpAttrs(touched)
	}
	return nil
}

// ValidateBatch checks a batch against the session's schema — row
// widths and numeric parses — without mutating anything: exactly the
// parse Append runs before applying. A durability layer calls it
// before logging a batch, so a batch that the (possibly asynchronous)
// apply would reject is never acknowledged as durably accepted.
func (s *Session) ValidateBatch(rows [][]string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, err := s.parseBatch(rows)
	return err
}

// parseBatch parses rows into a dataset over the raw schema with
// Builder.AddRow's semantics ("?" is missing, unseen labels register
// in the batch's own dictionaries, continuous fields parse as
// numbers). The parse is the batch's validation: its error names the
// row and, for a number that does not parse, the attribute. Nothing of
// the session mutates.
func (s *Session) parseBatch(rows [][]string) (*dataset.Dataset, error) {
	b, err := dataset.NewBuilder(s.raw.Schema())
	if err != nil {
		return nil, err
	}
	for r, row := range rows {
		if err := b.AddRow(row); err != nil {
			return nil, fmt.Errorf("opmap: append row %d: %w", r, err)
		}
	}
	return b.Build()
}

// appendBatch appends every row of batch to dst through the dictionary
// union: batch's labels register in dst's dictionaries, its codes are
// remapped to dst's.
func appendBatch(dst, batch *dataset.Dataset) error {
	rm, err := dst.UnionDicts(batch)
	if err != nil {
		return err
	}
	return dst.AppendRemapped(batch, rm)
}

// presentAttrs lists, in index order, the non-class attributes that
// some row of the categorical dataset ds sets: the attributes whose
// cached results an append of ds invalidates. A row whose class is
// missing still counts.
func presentAttrs(ds *dataset.Dataset) []int {
	var out []int
	for a := 0; a < ds.NumAttrs(); a++ {
		if a == ds.ClassIndex() {
			continue
		}
		codes := &ds.Column(a).Codes
		for r := 0; r < ds.NumRows(); r++ {
			if codes.At(r) >= 0 {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// IngestSeq returns the WAL sequence number of the last batch the
// serving layer marked applied (zero when the session has never been
// fed from a WAL).
func (s *Session) IngestSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ingestSeq
}
