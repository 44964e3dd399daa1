package opmap

import (
	"context"
	"fmt"
	"math"
	"sort"

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
// The whole batch is validated before anything mutates, so a malformed
// batch leaves the session untouched. After validation the batch
// applies row by row; a mid-batch engine error (which cannot arise
// from a validated row) drops the engine rather than serve skewed
// counts. Numeric values bin through the current cuts: an append never
// moves them. To re-cut a grown session, call Discretize and then a
// BuildCubes variant.
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
// cancel ctx mid-batch (the WAL apply path passes an uncancellable
// context); a partially applied batch would still be marked consumed.
func (s *Session) AppendSeq(ctx context.Context, rows [][]string, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.appendLocked(ctx, rows)
	s.ingestSeq = seq
	return err
}

// appendLocked is the body shared by the Append variants. Callers hold
// the write lock.
func (s *Session) appendLocked(ctx context.Context, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	// Validate pass: width and continuous parses for the whole batch.
	floats, err := s.validateBatch(rows)
	if err != nil {
		return err
	}

	classIdx := s.raw.ClassIndex()
	touched := make(map[int]bool)
	// Coded rows accumulate here and fold into the resident engine in
	// one batched apply (rulecube.IngestCubes behind the engine's
	// IngestRows): the dictionaries are fully grown by then, so each
	// cube pays one SyncDims per batch instead of one per row. Any early
	// return must flush the accumulated prefix first so the engine's
	// counts match the rows already appended to the dataset.
	var (
		pending [][]int32
		classes []int32
	)
	applyPending := func() error {
		if len(pending) == 0 {
			return nil
		}
		err := s.applyRowsToEngine(pending, classes)
		pending, classes = nil, nil
		return err
	}
	// bail ends the batch early: the applied prefix stays applied and
	// consistent (engine folded, caches invalidated), err is returned.
	// An engine error while folding (which cannot arise from a validated
	// row) drops the engine rather than serve skewed counts.
	bail := func(err error) error {
		if aerr := applyPending(); aerr != nil {
			s.dropEngine()
		}
		s.flushTouched(touched)
		return err
	}
	for r, row := range rows {
		if err := ctx.Err(); err != nil {
			// Already-applied rows of the batch stay applied and
			// consistent; the caller decides whether to re-send the rest.
			return bail(err)
		}
		if err := s.raw.AppendRow(row); err != nil {
			// Unreachable after validateBatch; fail loudly if it isn't.
			return bail(err)
		}
		codes, err := s.appendWorkingRow(row, floats[r])
		if err != nil {
			return bail(err)
		}
		if codes != nil {
			pending = append(pending, codes)
			classes = append(classes, codes[classIdx])
			for i, c := range codes {
				if i != classIdx && c >= 0 {
					touched[i] = true
				}
			}
		}
	}
	if err := applyPending(); err != nil {
		s.flushTouched(touched)
		s.dropEngine()
		return err
	}
	s.flushTouched(touched)
	return nil
}

// ValidateBatch checks a batch against the session's schema — row
// widths and numeric parses — without mutating anything: exactly the
// validation Append runs before applying. A durability layer calls it
// before logging a batch, so a batch that the (possibly asynchronous)
// apply would reject is never acknowledged as durably accepted.
func (s *Session) ValidateBatch(rows [][]string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, err := s.validateBatch(rows)
	return err
}

// validateBatch checks every row's width and parses its continuous
// fields, returning the parsed values per row (nil entries when the
// schema has no continuous attributes). Nothing mutates.
func (s *Session) validateBatch(rows [][]string) ([][]float64, error) {
	n := s.raw.NumAttrs()
	hasCont := !s.raw.AllCategorical()
	floats := make([][]float64, len(rows))
	for r, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("opmap: append row %d has %d values, schema has %d attributes", r, len(row), n)
		}
		if !hasCont {
			continue
		}
		fr := make([]float64, n)
		for i := 0; i < n; i++ {
			if s.raw.Attr(i).Kind != dataset.Continuous {
				continue
			}
			f, err := dataset.ParseContinuous(row[i])
			if err != nil {
				return nil, fmt.Errorf("opmap: append row %d attribute %q: cannot parse %q as number", r, s.raw.Attr(i).Name, row[i])
			}
			fr[i] = f
		}
		floats[r] = fr
	}
	return floats, nil
}

// appendWorkingRow folds one validated row into the discretized
// working dataset and returns its coded form (nil when no working
// dataset exists yet — before Discretize on a continuous schema —
// in which case only the raw dataset grows).
func (s *Session) appendWorkingRow(row []string, fr []float64) ([]int32, error) {
	if s.ds == nil {
		return nil, nil
	}
	n := s.raw.NumAttrs()
	codes := make([]int32, n)
	if s.ds == s.raw {
		// All-categorical schema: the working dataset IS the raw dataset
		// and AppendRow above already grew it; just read the codes back.
		last := s.ds.NumRows() - 1
		for i := 0; i < n; i++ {
			codes[i] = s.ds.Column(i).Codes.At(last)
		}
		return codes, nil
	}
	// Discretized working dataset, a Derive of the raw dataset: its
	// categorical columns and dictionaries are raw's own, so the lookups
	// below find the codes raw's AppendRow just wrote and AppendCodedRow
	// re-slices the shared columns to raw's grown codes instead of
	// writing them again. Numeric values bin through the remembered cuts
	// (every bin is pre-registered in the interval dictionary).
	for i := 0; i < n; i++ {
		if s.raw.Attr(i).Kind == dataset.Continuous {
			name := s.raw.Attr(i).Name
			if math.IsNaN(fr[i]) {
				codes[i] = dataset.Missing
				continue
			}
			codes[i] = int32(discretize.BinOf(s.cuts[name], fr[i]))
			continue
		}
		if row[i] == dataset.MissingLabel {
			codes[i] = dataset.Missing
			continue
		}
		codes[i] = s.ds.Column(i).Dict.Code(row[i])
	}
	return codes, s.ds.AppendCodedRow(codes, nil)
}

// applyRowsToEngine folds a batch of coded rows into every resident
// cube of the engine through rulecube's one batch apply. No engine
// means nothing to maintain: cubes built later count the grown dataset
// anyway.
func (s *Session) applyRowsToEngine(rows [][]int32, classes []int32) error {
	if s.src == nil {
		return nil
	}
	return s.src.IngestRows(rows, classes)
}

// flushTouched invalidates cached results depending on the attributes
// the batch (or the applied prefix of it) touched, then clears the set.
func (s *Session) flushTouched(touched map[int]bool) {
	if len(touched) == 0 {
		return
	}
	attrs := make([]int, 0, len(touched))
	for a := range touched {
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)
	s.results.BumpAttrs(attrs)
	for a := range touched {
		delete(touched, a)
	}
}

// IngestSeq returns the WAL sequence number of the last batch the
// serving layer marked applied (zero when the session has never been
// fed from a WAL).
func (s *Session) IngestSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ingestSeq
}
