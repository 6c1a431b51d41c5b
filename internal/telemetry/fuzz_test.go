package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzEventRoundTrip mirrors FuzzParamsRoundTrip: any event the writer
// accepts must read back equal, and any event Validate rejects must never
// reach the wire.
func FuzzEventRoundTrip(f *testing.F) {
	f.Add("serve/space-ground/108/seed=1", 0, 30.0, int64(5886), int64(12), int64(3000), int64(2000), int64(3), int64(1), true, true, int64(8), int64(2), 0.9125)
	f.Add("coverage/air-ground/2", 239, 7170.0, int64(45), int64(9), int64(0), int64(0), int64(0), int64(0), false, false, int64(0), int64(0), 0.0)
	f.Add("", -1, math.NaN(), int64(-1), int64(0), int64(0), int64(0), int64(0), int64(0), false, false, int64(0), int64(0), math.Inf(1))
	f.Fuzz(func(t *testing.T, label string, step int, ts float64,
		pairs, links, horizon, rang, trees, down int64,
		weather, covered bool, served, dropped int64, fid float64) {
		e := Event{
			Label: label, Step: step, TSeconds: ts,
			PairsEvaluated: pairs, LinksAdmitted: links,
			HorizonRejects: horizon, RangeRejects: rang,
			TreesBuilt: trees, NodesSettled: trees, NodesDown: down,
			Weather: weather, Covered: covered,
			Served: served, Dropped: dropped, MeanFidelity: fid,
		}
		s := NewEventSink()
		s.Record(e)
		var b bytes.Buffer
		err := s.WriteNDJSON(&b)
		if e.Validate() != nil {
			if err == nil {
				t.Fatalf("invalid event written: %+v", e)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid event rejected by writer: %v", err)
		}
		got, err := ReadNDJSON(&b)
		if err != nil {
			t.Fatalf("written stream rejected by reader: %v\n%s", err, b.String())
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], e) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
		}
	})
}

// FuzzReadNDJSON throws arbitrary bytes at the reader: it must never panic,
// and everything it accepts must survive a write/read cycle unchanged
// (parse-validate-reserialize idempotence).
func FuzzReadNDJSON(f *testing.F) {
	f.Add([]byte(`{"label":"x","step":0,"t_s":0,"pairs_evaluated":1,"links_admitted":0,"horizon_rejects":0,"range_rejects":0}`))
	f.Add([]byte("{\"label\":\"a\",\"step\":0,\"t_s\":0,\"pairs_evaluated\":0,\"links_admitted\":0,\"horizon_rejects\":0,\"range_rejects\":0}\n\n{\"label\":\"b\",\"step\":1,\"t_s\":30,\"pairs_evaluated\":0,\"links_admitted\":0,\"horizon_rejects\":0,\"range_rejects\":0}"))
	f.Add([]byte(`{"label":"x","t_s":1e999}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte("{}{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadNDJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, e := range events {
			if e.Validate() != nil {
				t.Fatalf("reader accepted invalid event %d: %+v", i, e)
			}
		}
		s := NewEventSink()
		for _, e := range events {
			s.Record(e)
		}
		var b bytes.Buffer
		if err := s.WriteNDJSON(&b); err != nil {
			t.Fatalf("accepted events rejected on rewrite: %v", err)
		}
		again, err := ReadNDJSON(&b)
		if err != nil {
			t.Fatalf("rewritten stream rejected: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("event count changed across rewrite: %d vs %d", len(again), len(events))
		}
	})
}

// FuzzManifestRoundTrip checks the manifest codec the same way: arbitrary
// JSON either fails to parse or round-trips byte-identically, and NaN/Inf
// never survive.
func FuzzManifestRoundTrip(f *testing.F) {
	f.Add([]byte(`{"command":"fig7","seed":1,"go_version":"go1.24.0","gomaxprocs":1,"num_cpu":1,"wall_ns":5}`))
	f.Add([]byte(`{"command":"degrade","params_hash":"097853f3676ca929","seed":-3,"go_version":"x","gomaxprocs":8,"num_cpu":8,"wall_ns":0,"cpu_seconds":1.25,"phases":[{"name":"degrade","wall_ns":7}],"summary":{"a":1}}`))
	f.Add([]byte(`{"command":"x","cpu_seconds":-1}`))
	f.Add([]byte(`{"command":"x","summary":{"k":1e999}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.Validate() != nil {
			t.Fatalf("reader returned invalid manifest: %+v", m)
		}
		var b1 bytes.Buffer
		if err := WriteManifest(&b1, m); err != nil {
			t.Fatalf("accepted manifest rejected on write: %v", err)
		}
		if strings.Contains(b1.String(), "NaN") || strings.Contains(b1.String(), "Inf") {
			t.Fatalf("non-finite value escaped to the wire:\n%s", b1.String())
		}
		first := append([]byte(nil), b1.Bytes()...) // ReadManifest drains the buffer
		m2, err := ReadManifest(&b1)
		if err != nil {
			t.Fatalf("rewritten manifest rejected: %v", err)
		}
		var b2 bytes.Buffer
		if err := WriteManifest(&b2, m2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, b2.Bytes()) {
			t.Fatalf("manifest not byte-stable:\n%s\nvs\n%s", first, b2.String())
		}
	})
}
