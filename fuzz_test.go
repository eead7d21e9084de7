package counterminer

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

// FuzzLoadCSV feeds arbitrary bytes to LoadCSV. LoadCSV must never
// panic, every data set it accepts must pass Validate, and re-encoding
// an accepted data set in the same layout must load back to
// bit-identical events, values and IPC. The seed corpus
// (testdata/fuzz/FuzzLoadCSV) covers a valid file, CRLF line endings,
// quoted fields, NaN and Inf values, a duplicate header, a ragged row,
// a non-increasing interval column and empty input.
func FuzzLoadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := LoadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("LoadCSV accepted an invalid data set: %v", err)
		}
		again, err := LoadCSV(bytes.NewReader(encodeCSV(t, d)))
		if err != nil {
			t.Fatalf("reload of a re-encoded data set: %v", err)
		}
		if len(again.Events) != len(d.Events) {
			t.Fatalf("reload has %d events, want %d", len(again.Events), len(d.Events))
		}
		for j, ev := range d.Events {
			if again.Events[j] != ev {
				t.Fatalf("event %d reloaded as %q, want %q", j, again.Events[j], ev)
			}
		}
		if len(again.X) != len(d.X) {
			t.Fatalf("reload has %d rows, want %d", len(again.X), len(d.X))
		}
		for i, row := range d.X {
			if !bitsEqual(again.X[i], row) {
				t.Fatalf("row %d reloaded as %v, want %v", i, again.X[i], row)
			}
		}
		if !bitsEqual(again.Y, d.Y) {
			t.Fatalf("ipc reloaded as %v, want %v", again.Y, d.Y)
		}
	})
}

// encodeCSV writes d in LoadCSV's layout: an "interval,<event...>,ipc"
// header, then one row per interval numbered from 0, with every value
// in its shortest round-tripping form.
func encodeCSV(t *testing.T, d *DataSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	header := append(append([]string{"interval"}, d.Events...), "ipc")
	if err := w.Write(header); err != nil {
		t.Fatal(err)
	}
	for i, row := range d.X {
		rec := make([]string, 0, len(row)+2)
		rec = append(rec, strconv.Itoa(i))
		for _, v := range row {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		rec = append(rec, strconv.FormatFloat(d.Y[i], 'g', -1, 64))
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
