package registry

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"dspot/internal/core"
	"dspot/internal/faultfs"
	"dspot/internal/obs"
	"dspot/internal/tensor"
)

// copyDir clones a data dir, so a reopen sees exactly what a crash at this
// point would leave and cannot disturb the live registry's files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// bitsEqual compares two values deeply, floats by their bits (so NaN
// equals NaN and -0 differs from +0); nil and empty slices are equal.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64, reflect.Float32:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Func, reflect.Chan:
		panic("bitsEqual: unsupported kind " + a.Kind().String())
	default:
		return a.Equal(b)
	}
}

// liveState snapshots one stream of a registry.
func liveState(t *testing.T, r *Registry, id string) core.StreamState {
	t.Helper()
	st, err := r.lookupStream(id)
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.s.State()
}

func sameState(a, b core.StreamState) bool {
	return bitsEqual(reflect.ValueOf(a), reflect.ValueOf(b))
}

// assertRecovers reopens a copy of the live registry's data dir and
// asserts the stream comes back bit-identical — State and next Forecast —
// with nothing quarantined.
func assertRecovers(t *testing.T, live *Registry, opts Options, id, when string) {
	t.Helper()
	opts.DataDir = copyDir(t, live.dir)
	opts.FS = nil
	met := NewMetricsOn(obs.NewRegistry())
	opts.Metrics = met
	r2, err := Open(opts)
	if err != nil {
		t.Fatalf("%s: reopen: %v", when, err)
	}
	if met.corrupt.Value() != 0 {
		t.Fatalf("%s: reopen quarantined %v files", when, met.corrupt.Value())
	}
	want, got := liveState(t, live, id), liveState(t, r2, id)
	if !sameState(want, got) {
		t.Fatalf("%s: recovered state differs from the live stream\nlive %+v\ngot  %+v", when, want, got)
	}
	fc1, _ := live.StreamForecast(id, 12)
	fc2, _ := r2.StreamForecast(id, 12)
	if !bitsEqual(reflect.ValueOf(fc1), reflect.ValueOf(fc2)) {
		t.Fatalf("%s: recovered forecast %v, live %v", when, fc2, fc1)
	}
}

// switchGate is a RefitGate that denies while deny is set (a saturated
// fleet) and admits otherwise.
type switchGate struct{ deny atomic.Bool }

func (g *switchGate) TryAcquire() (func(), bool) {
	if g.deny.Load() {
		return nil, false
	}
	return func() {}, true
}

func TestJournalRecordRoundTrip(t *testing.T) {
	vals := []float64{1.5, tensor.Missing, 0, math.Float64frombits(0x7ff8000000000123), 1e300}
	data := append(encodeJournalRecord(7, -1, vals, false), encodeJournalRecord(8, 42, vals[:1], true)...)
	sc, err := decodeJournal(data, 6)
	if err != nil || sc.torn || sc.stale != 0 || len(sc.recs) != 2 {
		t.Fatalf("decode = %+v, %v", sc, err)
	}
	if r := sc.recs[0]; r.seq != 7 || r.at != -1 || r.deferred ||
		!bitsEqual(reflect.ValueOf(r.values), reflect.ValueOf(vals)) {
		t.Fatalf("record 0 = %+v", r)
	}
	if r := sc.recs[1]; r.seq != 8 || r.at != 42 || !r.deferred || len(r.values) != 1 {
		t.Fatalf("record 1 = %+v", r)
	}
	if sc, _ := decodeJournal(data, 7); sc.stale != 1 || len(sc.recs) != 1 {
		t.Fatalf("records the snapshot subsumes must be skipped: %+v", sc)
	}
	if sc, err := decodeJournal(data[:len(data)-3], 6); err != nil || !sc.torn || len(sc.recs) != 1 {
		t.Fatalf("torn tail: %+v, %v", sc, err)
	}
	if _, err := decodeJournal(data, 3); err == nil {
		t.Fatal("a sequence gap after the snapshot must be rejected")
	}
	bad := append([]byte(nil), data...)
	bad[journalHeader+2] ^= 1
	if sc, err := decodeJournal(bad, 6); err == nil || len(sc.recs) != 0 {
		t.Fatalf("checksum mismatch: %+v, %v", sc, err)
	}
	if _, err := decodeJournal(encodeJournalRecord(1, -1, []float64{-1}, false), 0); err == nil {
		t.Fatal("negative tick admitted")
	}
	if _, err := decodeJournal(encodeJournalRecord(1, -1, []float64{math.Inf(1)}, false), 0); err == nil {
		t.Fatal("Inf tick admitted")
	}
}

// TestStreamJournalRecoveryExact is the crash-recovery property: in batch
// and incremental mode, through positioned, duplicate and gapped appends,
// retention eviction, refits deferred by a saturated gate, failed refits
// and cancelled refits, a reopen after every append restores the live
// stream bit for bit.
func TestStreamJournalRecoveryExact(t *testing.T) {
	for _, mode := range []string{"batch", "incremental"} {
		t.Run(mode, func(t *testing.T) {
			poisoned := atomic.Bool{}
			gate := &switchGate{}
			opts := Options{
				DataDir: t.TempDir(),
				StreamFit: core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 2,
					Progress: func(core.FitEvent) {
						if poisoned.Load() {
							panic("injected refit fault")
						}
					}},
				StreamIncremental: core.IncrementalConfig{TailWindow: 26, DebtLimit: 12},
				RefitGate:         gate,
			}
			r, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			series := streamSeries(200)
			series[45] = tensor.Missing
			ctx := context.Background()
			if _, err := r.AppendStream(ctx, "p", series[:40],
				AppendOptions{RefitEvery: 12, Mode: mode, Retention: 48}); err != nil {
				t.Fatal(err)
			}
			assertRecovers(t, r, opts, "p", "seed")
			kinds := map[string]int{}
			for i := 0; i < 75; i++ {
				head := liveState(t, r, "p")
				h := int(head.Evicted) + len(head.Seq)
				gate.deny.Store(i >= 8 && i < 20)
				poisoned.Store(i >= 44 && i < 64)
				actx := ctx
				if i >= 24 && i < 40 {
					c, cancel := context.WithCancel(ctx)
					cancel()
					actx = c
				}
				var ao AppendOptions
				vals := []float64{series[h%len(series)]}
				switch {
				case i%7 == 3: // partial replay: two ticks overlap
					ao = AppendOptions{At: int64(h - 2), AtSet: true}
					vals = []float64{1, 2, series[h%len(series)]}
				case i%11 == 5: // full replay: dropped idempotently
					ao = AppendOptions{At: int64(h - 3), AtSet: true}
					vals = []float64{1, 2}
				case i%13 == 7: // forward gap of two ticks
					ao = AppendOptions{At: int64(h + 2), AtSet: true}
				}
				st, err := r.AppendStream(actx, "p", vals, ao)
				switch {
				case errors.Is(err, context.Canceled):
					kinds["cancelled"]++
				case err != nil:
					kinds["failed"]++
				case st.Refitted:
					kinds["refit"]++
				}
				assertRecovers(t, r, opts, "p", fmt.Sprintf("append %d", i))
			}
			final := liveState(t, r, "p")
			if final.Evicted == 0 || final.Deferred == 0 || final.Dropped == 0 || final.GapFilled == 0 {
				t.Fatalf("schedule missed a case: %+v", final)
			}
			if kinds["refit"] == 0 || kinds["failed"] == 0 || kinds["cancelled"] == 0 {
				t.Fatalf("schedule missed refits, failed or cancelled refits: %v", kinds)
			}
			t.Logf("%s: %v, evicted %d, deferred %d, dropped %d, gap-filled %d",
				mode, kinds, final.Evicted, final.Deferred, final.Dropped, final.GapFilled)
		})
	}
}

// TestStreamJournalAppendBytes asserts that a non-compacting append writes
// O(ticks appended) bytes: the same single record at 100 and at 1000 ticks
// of history, instead of a snapshot that grows with the stream.
func TestStreamJournalAppendBytes(t *testing.T) {
	series := streamSeries(1001)
	for _, n := range []int{100, 1000} {
		in := faultfs.NewInjector(nil)
		r, err := Open(Options{DataDir: t.TempDir(), FS: in, RefitGate: denyGate{}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.AppendStream(context.Background(), "b", series[:n], AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		in.Reset()
		if _, err := r.AppendStream(context.Background(), "b", series[n:n+1], AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		if got, want := in.Written(), journalRecordSize(1); got != want {
			t.Fatalf("n=%d: a one-tick append wrote %d bytes, want one %d-byte record", n, got, want)
		}
		if in.Count(faultfs.OpRename) != 0 {
			t.Fatalf("n=%d: a one-tick append rewrote the snapshot", n)
		}
	}
}

// TestSnapshotOnlyDataDirBoots pins back-compat: a data dir holding only a
// snapshot without journal_seq, as written before the journal existed,
// boots unchanged and then journals from sequence 1.
func TestSnapshotOnlyDataDirBoots(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "streams"), 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := `{"refit_every":1000,"seq":[1,2,null,3,4,5,6],"fitted":false,"since_refit":7,"refits":0}`
	if err := os.WriteFile(filepath.Join(dir, "streams", "old.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{DataDir: dir}
	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.StreamStatusFor("old")
	if err != nil || st.Len != 7 {
		t.Fatalf("legacy stream = %+v, %v", st, err)
	}
	if _, err := r.AppendStream(context.Background(), "old", []float64{7}, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "streams", "old.journal"))
	if err != nil {
		t.Fatalf("append to a legacy snapshot was not journaled: %v", err)
	}
	if sc, err := decodeJournal(data, 0); err != nil || len(sc.recs) != 1 || sc.recs[0].seq != 1 {
		t.Fatalf("journal = %+v, %v", sc, err)
	}
	assertRecovers(t, r, opts, "old", "after first journaled append")
}

// setupJournaled opens a registry on in with one fitted stream "s" whose
// journal holds one record past its snapshot or, when fresh, has just been
// compacted away.
func setupJournaled(t *testing.T, in *faultfs.Injector, fresh bool) (*Registry, Options) {
	t.Helper()
	opts := Options{DataDir: t.TempDir(), FS: in,
		StreamFit: core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 2}}
	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	series := streamSeries(70)
	if _, err := r.AppendStream(context.Background(), "s", series[:60], AppendOptions{RefitEvery: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AppendStream(context.Background(), "s", series[60:61], AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if fresh {
		if _, err := r.AppendStream(context.Background(), "s", series[61:62], AppendOptions{RefitEvery: 999}); err != nil {
			t.Fatal(err)
		}
	}
	return r, opts
}

// recoveredState reopens a copy of dir and returns the stream's state.
func recoveredState(t *testing.T, opts Options, dir string) (core.StreamState, *Metrics) {
	t.Helper()
	opts.DataDir = copyDir(t, dir)
	opts.FS = nil
	met := NewMetricsOn(obs.NewRegistry())
	opts.Metrics = met
	r, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return liveState(t, r, "s"), met
}

// sweepFaults injects a fault at every operation of one append (made by
// step on a setupJournaled stream, whose journal is absent when fresh) and
// asserts the crash contract: the caller sees the injected error, a reopen
// recovers the state from just before or just after the append — never a
// torn one — and the next append compacts, from where recovery is exact
// again. Position 0 is a short (torn) write instead of a failed operation.
func sweepFaults(t *testing.T, fresh bool, wantOps int, step func(r *Registry) error) {
	t.Helper()
	if ops := countOps(t, fresh, step); ops != wantOps {
		t.Fatalf("a clean step took %d filesystem operations, want %d", ops, wantOps)
	}
	for k := 0; k <= wantOps; k++ {
		t.Run(fmt.Sprintf("op%d", k), func(t *testing.T) {
			in := faultfs.NewInjector(nil)
			r, opts := setupJournaled(t, in, fresh)
			before := liveState(t, r, "s")
			if k == 0 {
				in.ShortWriteNth(1)
			} else {
				in.FailNth(faultfs.OpAny, k, nil)
			}
			if err := step(r); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("caller saw %v, want the injected fault", err)
			}
			after := liveState(t, r, "s")
			got, met := recoveredState(t, opts, r.dir)
			if !sameState(got, before) && !sameState(got, after) {
				t.Fatalf("recovered a state that is neither before (len %d) nor after (len %d) the append: len %d",
					len(before.Seq), len(after.Seq), len(got.Seq))
			}
			if met.corrupt.Value() != 0 {
				t.Fatalf("a fault in one append quarantined %v files", met.corrupt.Value())
			}

			in.Reset()
			if _, err := r.AppendStream(context.Background(), "s", []float64{3}, AppendOptions{}); err != nil {
				t.Fatal(err)
			}
			if in.Count(faultfs.OpRename) != 1 || in.Count(faultfs.OpAppend) != 0 {
				t.Fatalf("append after a fault did not compact: %d renames, %d journal opens",
					in.Count(faultfs.OpRename), in.Count(faultfs.OpAppend))
			}
			assertRecovers(t, r, opts, "s", "after the compacting append")
		})
	}
}

// countOps counts the filesystem operations of one clean step.
func countOps(t *testing.T, fresh bool, step func(r *Registry) error) int {
	t.Helper()
	in := faultfs.NewInjector(nil)
	r, _ := setupJournaled(t, in, fresh)
	in.Reset()
	if err := step(r); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, op := range []string{faultfs.OpCreate, faultfs.OpAppend, faultfs.OpWrite, faultfs.OpSync,
		faultfs.OpClose, faultfs.OpRename, faultfs.OpRemove, faultfs.OpRead,
		faultfs.OpReadDir, faultfs.OpStat, faultfs.OpMkdir, faultfs.OpSyncDir} {
		n += in.Count(op)
	}
	return n
}

func appendOne(r *Registry) error {
	_, err := r.AppendStream(context.Background(), "s", []float64{5}, AppendOptions{})
	return err
}

// TestChaosStreamJournalAppendFaults sweeps a fault through every
// operation of a journaled append: open, write, fsync, close.
func TestChaosStreamJournalAppendFaults(t *testing.T) {
	sweepFaults(t, false, 4, appendOne)
}

// TestChaosStreamJournalFirstAppendFaults sweeps the first journaled append
// after a compaction, which creates the journal and so also fsyncs the
// directory.
func TestChaosStreamJournalFirstAppendFaults(t *testing.T) {
	sweepFaults(t, true, 5, appendOne)
}

// TestChaosStreamJournalCompactionFaults sweeps a fault through every
// operation of a compaction (snapshot create, write, fsync, close, rename,
// directory fsync, journal removal), triggered here by an option change.
func TestChaosStreamJournalCompactionFaults(t *testing.T) {
	sweepFaults(t, false, 7, func(r *Registry) error {
		_, err := r.AppendStream(context.Background(), "s", []float64{5}, AppendOptions{RefitEvery: 500})
		return err
	})
}

// TestChaosStreamJournalTornTail truncates the journal mid-record — an
// append that never got acknowledged — and checks boot drops it without
// counting corruption and compacts it away.
func TestChaosStreamJournalTornTail(t *testing.T) {
	r, opts := setupJournaled(t, faultfs.NewInjector(nil), false)
	want := liveState(t, r, "s")
	if _, err := r.AppendStream(context.Background(), "s", []float64{5, 6}, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(r.dir, "streams", "s.journal")
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jp, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	opts.DataDir, opts.FS = r.dir, nil
	met := NewMetricsOn(obs.NewRegistry())
	opts.Metrics = met
	r2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := liveState(t, r2, "s"); !sameState(got, want) {
		t.Fatalf("torn tail not dropped: len %d, want %d", len(got.Seq), len(want.Seq))
	}
	if met.corrupt.Value() != 0 {
		t.Fatalf("a torn tail counted as corruption: %v", met.corrupt.Value())
	}
	if _, err := os.Stat(jp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn journal not compacted away: %v", err)
	}
	if _, err := r2.AppendStream(context.Background(), "s", []float64{7}, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	assertRecovers(t, r2, opts, "s", "after the torn tail")
}

// TestChaosStreamJournalCorruptQuarantined flips a byte inside the journal:
// the records before it replay, the journal is quarantined as .corrupt and
// counted, and the stream is compacted so it keeps working.
func TestChaosStreamJournalCorruptQuarantined(t *testing.T) {
	r, opts := setupJournaled(t, faultfs.NewInjector(nil), false)
	want := liveState(t, r, "s")
	for _, v := range []float64{5, 6} {
		if _, err := r.AppendStream(context.Background(), "s", []float64{v}, AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	jp := filepath.Join(r.dir, "streams", "s.journal")
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	rec := int(journalRecordSize(1))
	if len(data) != 3*rec {
		t.Fatalf("journal holds %d bytes, want 3 one-tick records", len(data))
	}
	data[rec+journalHeader+3] ^= 0x40 // inside the second record
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.DataDir, opts.FS = r.dir, nil
	met := NewMetricsOn(obs.NewRegistry())
	opts.Metrics = met
	r2, err := Open(opts)
	if err != nil {
		t.Fatalf("a corrupt journal blocked boot: %v", err)
	}
	if met.corrupt.Value() != 1 {
		t.Fatalf("registry_corrupt_total = %v, want 1", met.corrupt.Value())
	}
	if _, err := os.Stat(jp + ".corrupt"); err != nil {
		t.Fatalf("journal not quarantined: %v", err)
	}
	// want is the state after the first record, the one before the damage.
	if got := liveState(t, r2, "s"); !sameState(got, want) {
		t.Fatalf("recovered len %d, want the records before the damage replayed (len %d)",
			len(got.Seq), len(want.Seq))
	}
	if _, err := r2.AppendStream(context.Background(), "s", []float64{7}, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	assertRecovers(t, r2, opts, "s", "after quarantine")
}

// TestStreamJournalOrphanAndDelete covers the journal's lifecycle edges:
// DeleteStream removes the journal with the snapshot, and a journal with
// no snapshot to replay onto is quarantined rather than ignored.
func TestStreamJournalOrphanAndDelete(t *testing.T) {
	r, opts := setupJournaled(t, faultfs.NewInjector(nil), false)
	jp := filepath.Join(r.dir, "streams", "s.journal")
	if _, err := os.Stat(jp); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteStream("s"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jp, filepath.Join(r.dir, "streams", "s.json")} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived DeleteStream: %v", p, err)
		}
	}
	orphan := filepath.Join(r.dir, "streams", "ghost.journal")
	if err := os.WriteFile(orphan, encodeJournalRecord(1, -1, []float64{1}, false), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.DataDir, opts.FS = r.dir, nil
	met := NewMetricsOn(obs.NewRegistry())
	opts.Metrics = met
	r2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.ListStreams()) != 0 || met.corrupt.Value() != 1 {
		t.Fatalf("orphan journal: streams %v, corrupt %v", r2.ListStreams(), met.corrupt.Value())
	}
	if _, err := os.Stat(orphan + ".corrupt"); err != nil {
		t.Fatalf("orphan journal not quarantined: %v", err)
	}
}

// TestChaosStreamJournalReplayDivergence hand-writes a record whose
// Deferred bit the replay cannot reproduce (no refit is due): boot keeps
// the record's ticks, quarantines the journal and compacts the stream.
func TestChaosStreamJournalReplayDivergence(t *testing.T) {
	r, opts := setupJournaled(t, faultfs.NewInjector(nil), true)
	st, err := r.lookupStream("s")
	if err != nil {
		t.Fatal(err)
	}
	want := liveState(t, r, "s")
	jp := filepath.Join(r.dir, "streams", "s.journal")
	if err := os.WriteFile(jp, encodeJournalRecord(st.seq+1, -1, []float64{9}, true), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.DataDir, opts.FS = r.dir, nil
	met := NewMetricsOn(obs.NewRegistry())
	opts.Metrics = met
	r2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if met.corrupt.Value() != 1 {
		t.Fatalf("registry_corrupt_total = %v, want 1", met.corrupt.Value())
	}
	if got := liveState(t, r2, "s"); len(got.Seq) != len(want.Seq)+1 {
		t.Fatalf("recovered len %d, want the diverged record's tick kept (%d)", len(got.Seq), len(want.Seq)+1)
	}
	if _, err := os.Stat(jp + ".corrupt"); err != nil {
		t.Fatalf("diverged journal not quarantined: %v", err)
	}
	assertRecovers(t, r2, opts, "s", "after divergence")
}
