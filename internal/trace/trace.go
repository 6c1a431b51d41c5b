// Package trace serializes satellite movement sheets to and from CSV. It is
// the file-interchange substitute for the STK export/import step in the
// paper's workflow: `qntnsim constellation` writes these files and the
// simulator (`qntnsim coverage -sheets`) can load them instead of
// propagating orbits in-process.
//
// Format (one file may hold many satellites):
//
//	name,t_seconds,x_m,y_m,z_m
//	SAT-001,0,1234.5,...,...
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"qntn/internal/geo"
	"qntn/internal/orbit"
)

// header is the CSV header row.
var header = []string{"name", "t_seconds", "x_m", "y_m", "z_m"}

// Write encodes the sheets as CSV to w.
func Write(w io.Writer, sheets []*orbit.MovementSheet) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, s := range sheets {
		for _, sm := range s.Samples {
			rec := []string{
				s.Name,
				strconv.FormatFloat(sm.T.Seconds(), 'f', -1, 64),
				strconv.FormatFloat(sm.ECEF.X, 'g', 17, 64),
				strconv.FormatFloat(sm.ECEF.Y, 'g', 17, 64),
				strconv.FormatFloat(sm.ECEF.Z, 'g', 17, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("trace: write sample: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Read decodes movement sheets from CSV. Samples for each satellite are
// sorted by time; the sample interval is inferred from the first two
// samples of each sheet (sheets with a single sample get a 1s interval).
func Read(r io.Reader) ([]*orbit.MovementSheet, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(header)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty file")
	}
	if !equalRow(rows[0], header) {
		return nil, fmt.Errorf("trace: unexpected header %v", rows[0])
	}
	byName := make(map[string][]orbit.Sample)
	var order []string
	for i, row := range rows[1:] {
		secs, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: bad time %q: %w", i+2, row[1], err)
		}
		// ParseFloat accepts "NaN" and "Inf" spellings, which would poison
		// interval inference and every downstream geometry computation —
		// reject them at the boundary.
		if math.IsNaN(secs) || math.IsInf(secs, 0) {
			return nil, fmt.Errorf("trace: row %d: non-finite time %q", i+2, row[1])
		}
		var v geo.Vec3
		for j, dst := range []*float64{&v.X, &v.Y, &v.Z} {
			f, err := strconv.ParseFloat(row[2+j], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d: bad coordinate %q: %w", i+2, row[2+j], err)
			}
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("trace: row %d: non-finite coordinate %q", i+2, row[2+j])
			}
			*dst = f
		}
		name := row[0]
		if _, seen := byName[name]; !seen {
			order = append(order, name)
		}
		byName[name] = append(byName[name], orbit.Sample{
			T:    time.Duration(secs * float64(time.Second)),
			ECEF: v,
		})
	}
	sheets := make([]*orbit.MovementSheet, 0, len(order))
	for _, name := range order {
		samples := byName[name]
		sort.Slice(samples, func(i, j int) bool { return samples[i].T < samples[j].T })
		interval := time.Second
		if len(samples) >= 2 {
			interval = samples[1].T - samples[0].T
		}
		if interval <= 0 {
			return nil, fmt.Errorf("trace: sheet %q has non-increasing timestamps", name)
		}
		sheets = append(sheets, &orbit.MovementSheet{Name: name, Interval: interval, Samples: samples})
	}
	return sheets, nil
}

func equalRow(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
