package registry

import (
	"math"
	"path/filepath"
	"testing"

	"dspot/internal/core"
	"dspot/internal/tensor"
)

// FuzzDecodeManifest hammers the boot-time trust boundary: whatever bytes
// end up in manifest.json, the decoder must either reject them or return a
// manifest whose every entry upholds the invariants the registry assumes
// (valid unique ids, local file paths, positive versions).
func FuzzDecodeManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"models":[]}`))
	f.Add([]byte(`{"version":1,"models":[{"id":"a","version":1,"file":"models/a.json",` +
		`"created_unix":1,"updated_unix":2,"keywords":1,"locations":4,"ticks":300}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"models":[{"id":"../x","version":1,"file":"models/x.json"}]}`))
	f.Add([]byte(`{"version":1,"models":[{"id":"a","version":1,"file":"/etc/passwd"}]}`))
	f.Add([]byte(`{"version":1,"models":[{"id":"a","version":0,"file":"m.json"}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		mf, err := decodeManifest(data)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, e := range mf.Models {
			if err := ValidateID(e.ID); err != nil {
				t.Fatalf("decoder admitted bad id %q", e.ID)
			}
			if seen[e.ID] {
				t.Fatalf("decoder admitted duplicate id %q", e.ID)
			}
			seen[e.ID] = true
			if e.Version < 1 {
				t.Fatalf("decoder admitted version %d", e.Version)
			}
			if e.File == "" || filepath.IsAbs(e.File) || !filepath.IsLocal(e.File) {
				t.Fatalf("decoder admitted unsafe path %q", e.File)
			}
		}
	})
}

// FuzzRestoreState hammers the other persisted trust boundary: stream
// snapshot JSON. Whatever bytes land in a streams/*.json file, decoding
// must either reject them or produce a state that restores into a stream
// whose Model/Forecast/State paths work without panicking, with no Inf or
// negative counts smuggled into the sequence.
func FuzzRestoreState(f *testing.F) {
	f.Add([]byte(`{"refit_every":30,"seq":[1,2,null,3],"fitted":false}`))
	f.Add([]byte(`{"refit_every":30,"seq":[],"fitted":true}`))
	f.Add([]byte(`{"refit_every":-5,"seq":[1],"since_refit":-9,"refits":-1}`))
	f.Add([]byte(`{"refit_every":10,"seq":[1e999]}`))
	f.Add([]byte(`{"refit_every":10,"seq":[-4,1,2]}`))
	f.Add([]byte(`{"refit_every":30,"seq":[1,2,3],"fitted":true,` +
		`"result":{"params":{"n":5,"beta":0.6,"delta":0.4,"gamma":0.3,"i0":0.01,` +
		`"t_eta":-1},"scale":1}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		state, refits, err := decodeStreamState(data)
		if err != nil {
			return
		}
		if refits < 0 {
			refits = 0 // refit counter is cosmetic; the stream must still work
		}
		for i, v := range state.Seq {
			if tensor.IsMissing(v) {
				continue
			}
			if math.IsInf(v, 0) || v < 0 {
				t.Fatalf("decoder admitted seq[%d] = %v", i, v)
			}
		}
		s := core.RestoreStream(core.FitOptions{Workers: 1, MaxOuterIter: 1, MaxShocks: 1}, state)
		_ = s.Len()
		_ = s.Ready()
		_ = s.Model()
		_ = s.Forecast(3)
		_ = s.State()
	})
}

// FuzzDecodeJournal hammers the journal trust boundary: whatever bytes end
// up in a streams/*.journal file, decoding must not panic, and every record
// it returns must be safe to replay — bounded, a position of at least -1,
// no Inf or negative ticks, and sequence numbers running on from the
// snapshot's. The records it returns re-encode to a journal that decodes
// to the same records, bit for bit.
func FuzzDecodeJournal(f *testing.F) {
	two := append(encodeJournalRecord(1, -1, []float64{1, tensor.Missing}, false),
		encodeJournalRecord(2, 7, []float64{3}, true)...)
	f.Add(two, uint64(0))
	f.Add(two, uint64(1))
	f.Add(two[:len(two)-4], uint64(0))
	f.Add(encodeJournalRecord(5, -1, nil, false), uint64(4))
	f.Add(encodeJournalRecord(1, -1, []float64{-2}, false), uint64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint64(0))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, after uint64) {
		sc, _ := decodeJournal(data, after)
		var enc []byte
		for i, rec := range sc.recs {
			if rec.seq != after+1+uint64(i) {
				t.Fatalf("record %d has seq %d after snapshot seq %d", i, rec.seq, after)
			}
			if rec.at < -1 || len(rec.values) > maxJournalTick {
				t.Fatalf("record %d: at %d, %d ticks", i, rec.at, len(rec.values))
			}
			for k, v := range rec.values {
				if math.IsInf(v, 0) || v < 0 {
					t.Fatalf("record %d admitted tick %d = %v", i, k, v)
				}
			}
			enc = append(enc, encodeJournalRecord(rec.seq, rec.at, rec.values, rec.deferred)...)
		}
		again, err := decodeJournal(enc, after)
		if err != nil || again.torn || len(again.recs) != len(sc.recs) {
			t.Fatalf("re-encoded records do not decode: %+v, %v", again, err)
		}
		for i := range sc.recs {
			a, b := sc.recs[i], again.recs[i]
			if a.seq != b.seq || a.at != b.at || a.deferred != b.deferred || len(a.values) != len(b.values) {
				t.Fatalf("record %d changed in a round trip: %+v != %+v", i, a, b)
			}
			for k := range a.values {
				if math.Float64bits(a.values[k]) != math.Float64bits(b.values[k]) {
					t.Fatalf("record %d tick %d changed bits in a round trip", i, k)
				}
			}
		}
	})
}
