package perf

// This file implements `perf stat -I` for the simulated machine, keyed
// on retired instructions instead of wall time (the simulator's only
// monotonic clock shared across configurations): an IntervalReader
// snapshots counter deltas every N retired instructions, turning a run's
// WCPI / walk-outcome / PTE-location trajectory into a plottable
// timeline instead of one end-of-run aggregate.

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// IntervalRow is one streamed window of counter deltas.
type IntervalRow struct {
	// Index is the row's position in the stream (0-based).
	Index int
	// InstStart is the cumulative retired-instruction count at the
	// window's open.
	InstStart uint64
	// InstEnd is the count at the window's close. Windows close at the
	// first machine-level event at or past the boundary, so InstEnd may
	// overshoot InstStart+interval by one event's instructions.
	InstEnd uint64
	// Delta holds the window's counter deltas.
	Delta Counters
}

// IntervalReader streams counter rows every `every` retired
// instructions from a live counter source.
type IntervalReader struct {
	read     func() Counters
	every    uint64
	next     uint64
	base     Counters
	baseInst uint64
	rows     []IntervalRow
}

// NewIntervalReader opens a stream over a live counter source (typically
// Machine.Counters as a method value). The first window starts at the
// source's current state.
func NewIntervalReader(read func() Counters, every uint64) (*IntervalReader, error) {
	if every == 0 {
		return nil, fmt.Errorf("perf: zero interval")
	}
	r := &IntervalReader{read: read, every: every}
	r.base = read()
	r.baseInst = r.base.Get(InstRetired)
	r.next = r.baseInst + every
	return r, nil
}

// Tick advances the stream; inst is the current retired-instruction
// count. Until the boundary passes this is one compare, so it can sit on
// the machine's per-access path.
func (r *IntervalReader) Tick(inst uint64) {
	if inst < r.next {
		return
	}
	r.emit(r.read())
}

// Flush closes the open partial window, if it is non-empty.
func (r *IntervalReader) Flush() {
	if cur := r.read(); cur.Get(InstRetired) > r.baseInst {
		r.emit(cur)
	}
}

func (r *IntervalReader) emit(cur Counters) {
	curInst := cur.Get(InstRetired)
	r.rows = append(r.rows, IntervalRow{
		Index:     len(r.rows),
		InstStart: r.baseInst,
		InstEnd:   curInst,
		Delta:     Delta(r.base, cur),
	})
	r.base = cur
	r.baseInst = curInst
	r.next = curInst + r.every
}

// Rows returns the rows streamed so far.
func (r *IntervalReader) Rows() []IntervalRow { return r.rows }

// --- encoders -------------------------------------------------------------

// intervalCSVHeader builds the header: row fields then one column per
// event in definition order.
func intervalCSVHeader() []string {
	h := []string{"index", "inst_start", "inst_end"}
	for e := Event(0); e < NumEvents; e++ {
		h = append(h, e.String())
	}
	return h
}

// WriteIntervalsCSV encodes rows as CSV with a header row, one column
// per PMU event.
func WriteIntervalsCSV(w io.Writer, rows []IntervalRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(intervalCSVHeader()); err != nil {
		return err
	}
	rec := make([]string, 3+int(NumEvents))
	for _, r := range rows {
		rec[0] = strconv.Itoa(r.Index)
		rec[1] = strconv.FormatUint(r.InstStart, 10)
		rec[2] = strconv.FormatUint(r.InstEnd, 10)
		for e := Event(0); e < NumEvents; e++ {
			rec[3+e] = strconv.FormatUint(r.Delta.Get(e), 10)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadIntervalsCSV decodes a WriteIntervalsCSV stream.
func ReadIntervalsCSV(r io.Reader) ([]IntervalRow, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("perf: intervals csv header: %w", err)
	}
	if len(header) != 3+int(NumEvents) {
		return nil, fmt.Errorf("perf: intervals csv: %d columns, want %d", len(header), 3+int(NumEvents))
	}
	var out []IntervalRow
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		var row IntervalRow
		if row.Index, err = strconv.Atoi(rec[0]); err != nil {
			return nil, fmt.Errorf("perf: intervals csv index: %w", err)
		}
		if row.InstStart, err = strconv.ParseUint(rec[1], 10, 64); err != nil {
			return nil, fmt.Errorf("perf: intervals csv inst_start: %w", err)
		}
		if row.InstEnd, err = strconv.ParseUint(rec[2], 10, 64); err != nil {
			return nil, fmt.Errorf("perf: intervals csv inst_end: %w", err)
		}
		for e := Event(0); e < NumEvents; e++ {
			v, err := strconv.ParseUint(rec[3+e], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("perf: intervals csv %s: %w", e, err)
			}
			row.Delta.Add(e, v)
		}
		out = append(out, row)
	}
}

// intervalJSON is the JSONL wire form: counts as an array in event
// definition order, which keeps lines compact and field order
// deterministic.
type intervalJSON struct {
	Index     int      `json:"index"`
	InstStart uint64   `json:"inst_start"`
	InstEnd   uint64   `json:"inst_end"`
	Counts    []uint64 `json:"counts"`
}

// MarshalJSON encodes the row in its JSONL wire form.
func (r IntervalRow) MarshalJSON() ([]byte, error) {
	counts := make([]uint64, NumEvents)
	for e := Event(0); e < NumEvents; e++ {
		counts[e] = r.Delta.Get(e)
	}
	return json.Marshal(intervalJSON{Index: r.Index, InstStart: r.InstStart, InstEnd: r.InstEnd, Counts: counts})
}

// WriteIntervalsJSONL encodes rows as JSON Lines.
func WriteIntervalsJSONL(w io.Writer, rows []IntervalRow) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadIntervalsJSONL decodes a WriteIntervalsJSONL stream.
func ReadIntervalsJSONL(r io.Reader) ([]IntervalRow, error) {
	dec := json.NewDecoder(r)
	var out []IntervalRow
	for {
		var j intervalJSON
		if err := dec.Decode(&j); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		if len(j.Counts) != int(NumEvents) {
			return nil, fmt.Errorf("perf: intervals jsonl: %d counts, want %d", len(j.Counts), NumEvents)
		}
		row := IntervalRow{Index: j.Index, InstStart: j.InstStart, InstEnd: j.InstEnd}
		for e := Event(0); e < NumEvents; e++ {
			row.Delta.Add(e, j.Counts[e])
		}
		out = append(out, row)
	}
}
