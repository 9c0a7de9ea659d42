package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dspot/internal/core"
	"dspot/internal/engine"
	"dspot/internal/numcheck"
	"dspot/internal/obs/trace"
	"dspot/internal/tensor"
)

// stream is one named incremental series. Its mutex serialises appends and
// snapshots per stream; fits run under it but never under the registry
// lock, so long refits on one stream do not stall the rest of the server.
type stream struct {
	id string

	mu     sync.Mutex
	s      *core.Stream
	refits int

	// Persistence ledger (data dir only). seq is the last journal sequence
	// number handed out; snapBytes is the size of the snapshot on disk (0 =
	// none yet) and jrnBytes the size of the journal appended since it.
	// dirty records a mutation that did not reach disk: the next append
	// compacts instead of journaling.
	seq       uint64
	snapBytes int64
	jrnBytes  int64
	dirty     bool
}

// StreamStatus is the client-visible state of a stream, including the
// effective maintenance configuration (mode and cadence) so callers can tell
// whether a requested change actually took effect.
type StreamStatus struct {
	ID         string  `json:"id"`
	Len        int     `json:"len"`
	Ready      bool    `json:"ready"`
	Refits     int     `json:"refits"`
	Mode       string  `json:"mode"`
	RefitEvery int     `json:"refit_every"`
	Debt       float64 `json:"debt,omitempty"`
	DebtLimit  float64 `json:"debt_limit,omitempty"`
	RetryIn    int     `json:"retry_in,omitempty"` // ticks until a failed refit retries
	Refitted   bool    `json:"refitted,omitempty"` // set by AppendStream only

	// Bounded-memory and hostile-input accounting. Head is the absolute
	// tick index the next append lands on (Evicted + Len — it never
	// decreases); Dropped/GapFilled count duplicate ticks ignored and
	// missing ticks synthesised; Deferred counts refits the scheduler
	// pushed back.
	Head      int64 `json:"head,omitempty"`
	Retention int   `json:"retention,omitempty"`
	Evicted   int64 `json:"evicted_ticks,omitempty"`
	Dropped   int64 `json:"dropped_ticks,omitempty"`
	GapFilled int64 `json:"gap_filled_ticks,omitempty"`
	Deferred  int64 `json:"deferred_refits,omitempty"`
}

// AppendOptions carries per-append stream configuration. Zero values mean
// "leave as is": a positive RefitEvery (re)sets the cadence — on existing
// streams too, not only at creation — a non-empty Mode switches the
// maintenance mode ("batch" or "incremental"), and a positive Retention
// (re)bounds the stream's sliding window. AtSet positions the append at
// absolute tick index At: the overlap with already-ingested ticks is
// dropped idempotently and a forward gap is bridged with missing ticks
// (bounded — see core.Stream.AppendAtCtx).
type AppendOptions struct {
	RefitEvery int
	Mode       string
	Retention  int
	At         int64
	AtSet      bool
}

// streamJSON is the persisted snapshot. JSON cannot carry NaN, so the
// sequence is encoded with null marking missing ticks. The incremental
// fields are omitted when zero, which is also how legacy batch snapshots —
// written before incremental maintenance existed — decode: mode "" maps to
// RefitBatch with no pending debt, preserving their historical behaviour.
type streamJSON struct {
	RefitEvery int                   `json:"refit_every"`
	Seq        []*float64            `json:"seq"`
	Fitted     bool                  `json:"fitted"`
	Result     *core.GlobalFitResult `json:"result,omitempty"`
	SinceRefit int                   `json:"since_refit"`
	Refits     int                   `json:"refits"`

	Mode       string     `json:"mode,omitempty"`
	TailWindow int        `json:"tail_window,omitempty"`
	DebtLimit  float64    `json:"debt_limit,omitempty"`
	Debt       float64    `json:"debt,omitempty"`
	Failures   int        `json:"refit_failures,omitempty"`
	CoolOff    int        `json:"refit_cooloff,omitempty"`
	LastScan   *int       `json:"last_scan,omitempty"` // nil = no peak examined yet (-1)
	Future     []*float64 `json:"future,omitempty"`    // projected per-shock strengths

	// Bounded-memory bookkeeping; zero (omitted) decodes legacy snapshots
	// as unbounded streams that never dropped a tick.
	Retention int   `json:"retention,omitempty"`
	Evicted   int64 `json:"evicted_ticks,omitempty"`
	Dropped   int64 `json:"dropped_ticks,omitempty"`
	GapFilled int64 `json:"gap_ticks,omitempty"`
	Deferred  int64 `json:"deferred_refits,omitempty"`

	// JournalSeq is the last journal record the snapshot subsumes; replay
	// starts after it. Snapshots written before the journal decode as 0.
	JournalSeq uint64 `json:"journal_seq,omitempty"`
}

func (r *Registry) streamPath(id string) string {
	return filepath.Join(r.dir, streamsDir, id+".json")
}

// AppendStream appends ticks to the named stream, creating it on first use.
// opts.RefitEvery, when positive, sets the refit cadence — honored on
// existing streams too, with the effective value reported in the returned
// StreamStatus. opts.Mode ("batch"/"incremental") likewise switches the
// maintenance mode; "" keeps the current one. A full refit — when one
// triggers — runs outside the registry lock and under ctx (nil = never
// cancelled): a cancelled or timed-out refit stops cooperatively, keeps the
// stream's last good fit, and is retried per the stream's backoff schedule.
// With a data dir the append is durable before it is acknowledged: either
// one fsynced journal record, or — when a refit was attempted, an option
// changed, or the journal has outgrown the snapshot — a compaction (see
// persistAppend), so a restart resumes the stream mid-series.
func (r *Registry) AppendStream(ctx context.Context, id string, values []float64, opts AppendOptions) (status StreamStatus, err error) {
	start := time.Now()
	refitted := false
	ctx, span := r.opts.Tracer.Start(ctx, "stream.append",
		trace.String("stream_id", id), trace.Int("ticks", len(values)))
	defer func() {
		path := "incremental"
		if refitted {
			path = "full"
		}
		r.opts.Metrics.streamAppend(path, time.Since(start))
		span.SetAttr("refitted", refitted)
		if err != nil {
			span.SetAttr("err", err.Error())
		}
		span.End()
	}()
	if err := ValidateID(id); err != nil {
		return StreamStatus{}, err
	}
	if len(values) == 0 {
		return StreamStatus{}, errors.New("registry: empty append")
	}
	mode, ok := core.ParseRefitMode(opts.Mode)
	if !ok {
		return StreamStatus{}, fmt.Errorf("%w: unknown stream mode %q", ErrBadRequest, opts.Mode)
	}
	if err := numcheck.Sequence("stream append", values); err != nil {
		return StreamStatus{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	st := r.getOrCreateStream(id, opts)
	st.mu.Lock()
	defer st.mu.Unlock()
	changed := st.configure(opts, mode)
	at := int64(-1)
	if opts.AtSet {
		at = opts.At
	}
	rec, err := st.s.AppendAtCtx(ctx, at, values...)
	if errors.Is(err, core.ErrGapTooLarge) {
		// Nothing was ingested, but an option change may have been applied.
		st.dirty = st.dirty || changed
		r.opts.Metrics.streamRejected("gap_too_large", len(values))
		return StreamStatus{}, fmt.Errorf("%w: stream %q: %v", ErrBadRequest, id, err)
	}
	// Any other error is a failed or cancelled refit: the ticks are kept.
	refitted = rec.Refitted
	r.opts.Metrics.streamRejected("duplicate", rec.DroppedTicks)
	r.opts.Metrics.streamGapFilled(rec.GapTicks)
	r.opts.Metrics.streamEvicted(rec.EvictedTicks)
	if rec.Deferred {
		r.opts.Metrics.streamRefitDeferred()
	}
	if refitted {
		st.refits++
		r.opts.Metrics.streamRefit()
	}
	status = st.statusLocked()
	status.Refitted = refitted
	var perr error
	if r.dir != "" {
		compact := changed || refitted || err != nil
		perr = r.persistAppend(st, compact, at, values, rec.Deferred)
		if perr != nil {
			r.opts.Metrics.persistError()
			r.logger().Error("registry: persisting stream", "id", id, "err", perr)
			perr = fmt.Errorf("registry: persisting stream %q: %w", id, perr)
		}
	}
	if err != nil {
		return StreamStatus{}, errors.Join(fmt.Errorf("registry: stream %q: %w", id, err), perr)
	}
	return status, perr
}

// configure applies the per-append options, reporting whether any of them
// actually changed the stream (such an append must compact: journal
// records carry ticks, not configuration).
func (st *stream) configure(opts AppendOptions, mode core.RefitMode) bool {
	every, m, ret := st.s.RefitEvery(), st.s.Mode(), st.s.Retention()
	if opts.RefitEvery > 0 {
		st.s.SetRefitEvery(opts.RefitEvery)
	}
	if opts.Mode != "" {
		st.s.SetMode(mode)
	}
	if opts.Retention > 0 {
		st.s.SetRetention(opts.Retention)
	}
	return every != st.s.RefitEvery() || m != st.s.Mode() || ret != st.s.Retention()
}

// persistAppend makes one append durable (st.mu held). It journals the
// append — one record, one fsync — unless the stream must compact: when
// compact is set (a refit was attempted or an option changed), when an
// earlier mutation did not reach disk, when the append is too large for a
// record, or when the journal would outgrow the snapshot (which also
// covers a stream with no snapshot yet). A failure leaves the stream
// dirty, so the next append compacts.
func (r *Registry) persistAppend(st *stream, compact bool, at int64, values []float64, deferred bool) error {
	if !compact && !st.dirty && len(values) <= maxJournalTick &&
		st.jrnBytes+journalRecordSize(len(values)) <= st.snapBytes {
		st.seq++
		if err := r.appendJournal(st, encodeJournalRecord(st.seq, at, values, deferred)); err != nil {
			st.dirty = true
			return err
		}
		return nil
	}
	return r.compactStream(st)
}

// RefitStream forces a full consolidating refit of the named stream now,
// regardless of cadence, pending debt or retry backoff.
func (r *Registry) RefitStream(ctx context.Context, id string) (StreamStatus, error) {
	st, err := r.lookupStream(id)
	if err != nil {
		return StreamStatus{}, err
	}
	start := time.Now()
	ctx, span := r.opts.Tracer.Start(ctx, "stream.refit", trace.String("stream_id", id))
	defer span.End()
	st.mu.Lock()
	defer st.mu.Unlock()
	err = st.s.RefitNow(ctx)
	if err == nil {
		st.refits++
		r.opts.Metrics.streamRefit()
		r.opts.Metrics.streamAppend("full", time.Since(start))
	}
	var perr error
	if r.dir != "" {
		// Compact even when the refit failed: a failure moves the retry
		// backoff, and the next journal replay must start from it.
		if perr = r.compactStream(st); perr != nil {
			r.opts.Metrics.persistError()
			perr = fmt.Errorf("registry: persisting stream %q: %w", id, perr)
		}
	}
	if err != nil {
		span.SetAttr("err", err.Error())
		return StreamStatus{}, errors.Join(fmt.Errorf("registry: stream %q: %w", id, err), perr)
	}
	status := st.statusLocked()
	status.Refitted = true
	return status, perr
}

// statusLocked builds the client-visible status (st.mu held by the caller).
func (st *stream) statusLocked() StreamStatus {
	return StreamStatus{ID: st.id, Len: st.s.Len(), Ready: st.s.Ready(),
		Refits: st.refits, Mode: st.s.Mode().String(), RefitEvery: st.s.RefitEvery(),
		Debt: st.s.Debt(), DebtLimit: st.s.DebtLimit(), RetryIn: st.s.RetryIn(),
		Head: st.s.Head(), Retention: st.s.Retention(), Evicted: st.s.EvictedTicks(),
		Dropped: st.s.DroppedTicks(), GapFilled: st.s.GapTicks(),
		Deferred: st.s.DeferredRefits()}
}

func (r *Registry) getOrCreateStream(id string, opts AppendOptions) *stream {
	r.streamMu.Lock()
	defer r.streamMu.Unlock()
	if st, ok := r.streams[id]; ok {
		return st
	}
	refitEvery := opts.RefitEvery
	if refitEvery <= 0 {
		refitEvery = r.opts.RefitEvery
	}
	mode := opts.Mode
	if mode == "" {
		mode = r.opts.StreamMode
	}
	var s *core.Stream
	if m, _ := core.ParseRefitMode(mode); m == core.RefitIncremental {
		s = core.NewIncrementalStream(r.opts.StreamFit, refitEvery, r.opts.StreamIncremental)
	} else {
		s = core.NewStream(r.opts.StreamFit, refitEvery)
	}
	r.configureStream(id, s)
	st := &stream{id: id, s: s}
	r.streams[id] = st
	r.opts.Metrics.setStreams(len(r.streams))
	return st
}

// StreamStatusFor returns the named stream's state.
func (r *Registry) StreamStatusFor(id string) (StreamStatus, error) {
	st, err := r.lookupStream(id)
	if err != nil {
		return StreamStatus{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.statusLocked(), nil
}

// StreamModel materialises the named stream's current model (nil until the
// first fit), engine-typed for the serving layer. Streams always fit with
// the Δ-SPOT core, so the result is a DspotModel. The model is a deep copy
// — safe to hand to encoders.
func (r *Registry) StreamModel(id string) (engine.Model, error) {
	st, err := r.lookupStream(id)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	m := st.s.Model()
	if m == nil {
		return nil, nil
	}
	return engine.NewDspotModel(m), nil
}

// StreamForecast extrapolates h ticks past the stream head (nil until the
// first fit).
func (r *Registry) StreamForecast(id string, h int) ([]float64, error) {
	st, err := r.lookupStream(id)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.s.Forecast(h), nil
}

// DeleteStream removes a stream from memory and disk.
func (r *Registry) DeleteStream(id string) error {
	r.streamMu.Lock()
	_, ok := r.streams[id]
	if ok {
		delete(r.streams, id)
		r.opts.Metrics.setStreams(len(r.streams))
	}
	r.streamMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: stream %q", ErrNotFound, id)
	}
	if r.dir != "" {
		// Journal first: a crash in between leaves a snapshot that boots
		// as the stream's last compacted state, never a journal without
		// the snapshot it extends.
		for _, path := range []string{r.journalPath(id), r.streamPath(id)} {
			if err := r.fs.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("registry: removing stream %q: %w", id, err)
			}
		}
	}
	return nil
}

// ListStreams returns the status of every stream, sorted by id.
func (r *Registry) ListStreams() []StreamStatus {
	r.streamMu.Lock()
	streams := make([]*stream, 0, len(r.streams))
	for _, st := range r.streams {
		streams = append(streams, st)
	}
	r.streamMu.Unlock()
	out := make([]StreamStatus, 0, len(streams))
	for _, st := range streams {
		st.mu.Lock()
		out = append(out, st.statusLocked())
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *Registry) lookupStream(id string) (*stream, error) {
	r.streamMu.Lock()
	defer r.streamMu.Unlock()
	st, ok := r.streams[id]
	if !ok {
		return nil, fmt.Errorf("%w: stream %q", ErrNotFound, id)
	}
	return st, nil
}

// compactStream writes the stream's snapshot atomically and then removes
// its journal, which the snapshot now subsumes (st.mu held). Until the
// removal succeeds the stream stays dirty, so nothing is ever appended to a
// journal holding records the snapshot already covers: a crash in between
// leaves stale records that replay skips by their sequence numbers.
func (r *Registry) compactStream(st *stream) error {
	st.dirty = true
	data, err := encodeSnapshot(st)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(r.fs, r.streamPath(st.id), data); err != nil {
		return err
	}
	st.snapBytes = int64(len(data))
	if err := r.fs.Remove(r.journalPath(st.id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	st.jrnBytes = 0
	st.dirty = false
	return nil
}

// encodeSnapshot renders the stream's snapshot JSON (st.mu held).
func encodeSnapshot(st *stream) ([]byte, error) {
	state := st.s.State()
	sj := streamJSON{
		RefitEvery: state.RefitEvery,
		Seq:        encodeSeq(state.Seq),
		Fitted:     state.Fitted,
		SinceRefit: state.SinceRefit,
		Refits:     st.refits,
		Mode:       "",
		TailWindow: state.TailWindow,
		DebtLimit:  state.DebtLimit,
		Debt:       state.Debt,
		Failures:   state.Failures,
		CoolOff:    state.CoolOff,
		Future:     encodeSeq(state.Future),
		Retention:  state.Retention,
		Evicted:    state.Evicted,
		Dropped:    state.Dropped,
		GapFilled:  state.GapFilled,
		Deferred:   state.Deferred,
		JournalSeq: st.seq,
	}
	if state.Mode != core.RefitBatch {
		sj.Mode = state.Mode.String()
	}
	if state.LastScan >= 0 {
		ls := state.LastScan
		sj.LastScan = &ls
	}
	if len(state.Future) == 0 {
		sj.Future = nil
	}
	if state.Fitted {
		res := state.Result
		sj.Result = &res
	}
	return json.Marshal(sj)
}

// decodeStreamState parses and validates one persisted snapshot, returning
// the state and the refit counter (see decodeSnapshot).
func decodeStreamState(data []byte) (core.StreamState, int, error) {
	snap, err := decodeSnapshot(data)
	return snap.state, snap.refits, err
}

// snapshot is one decoded streams/<id>.json.
type snapshot struct {
	state      core.StreamState
	refits     int
	journalSeq uint64
}

// decodeSnapshot parses and validates one persisted snapshot. It is the
// trust boundary for stream files (fuzzed by FuzzRestoreState): the decoded
// sequence must contain no Inf or negative counts (NaN is the missing
// sentinel and fine), and a fitted snapshot must materialise a model that
// passes the same validation Put applies.
func decodeSnapshot(data []byte) (snapshot, error) {
	var sj streamJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return snapshot{}, err
	}
	mode, ok := core.ParseRefitMode(sj.Mode)
	if !ok {
		return snapshot{}, fmt.Errorf("unknown stream mode %q", sj.Mode)
	}
	state := core.StreamState{
		RefitEvery: sj.RefitEvery,
		Seq:        decodeSeq(sj.Seq),
		Fitted:     sj.Fitted,
		SinceRefit: sj.SinceRefit,
		Mode:       mode,
		TailWindow: sj.TailWindow,
		DebtLimit:  sj.DebtLimit,
		Debt:       sj.Debt,
		Failures:   sj.Failures,
		CoolOff:    sj.CoolOff,
		LastScan:   -1,
		Future:     decodeSeq(sj.Future),
		Retention:  sj.Retention,
		Evicted:    sj.Evicted,
		Dropped:    sj.Dropped,
		GapFilled:  sj.GapFilled,
		Deferred:   sj.Deferred,
	}
	if sj.LastScan != nil && *sj.LastScan >= 0 {
		state.LastScan = *sj.LastScan
	}
	if len(sj.Future) == 0 {
		state.Future = nil
	}
	if err := numcheck.Sequence("stream snapshot", state.Seq); err != nil {
		return snapshot{}, err
	}
	if sj.Result != nil {
		state.Result = *sj.Result
	}
	if state.Fitted {
		if err := validateStreamState(&state); err != nil {
			return snapshot{}, err
		}
	}
	return snapshot{state: state, refits: sj.Refits, journalSeq: sj.JournalSeq}, nil
}

// loadStreams restores every stream under streams/: its snapshot, then its
// journal replayed on top (restoreStream). A corrupt or invalid snapshot
// is quarantined as <file>.corrupt and skipped — one bad stream must not
// block the boot, but leaving the bad file in place would re-fail (and
// previously silently re-skip) on every restart. A journal whose snapshot
// did not load cannot be replayed and is quarantined with it.
func (r *Registry) loadStreams() error {
	dir := filepath.Join(r.dir, streamsDir)
	entries, err := r.fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("registry: scanning streams: %w", err)
	}
	var journals []string
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".journal") {
			journals = append(journals, strings.TrimSuffix(name, ".journal"))
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		path := filepath.Join(dir, name)
		if err := ValidateID(id); err != nil {
			r.quarantine(path, "stream", id, err)
			continue
		}
		data, err := r.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("registry: reading stream %q: %w", id, err)
		}
		snap, err := decodeSnapshot(data)
		if err != nil {
			r.quarantine(path, "stream", id, err)
			continue
		}
		st, err := r.restoreStream(id, snap, int64(len(data)))
		if err != nil {
			return err
		}
		r.streams[id] = st
	}
	for _, id := range journals {
		if _, ok := r.streams[id]; !ok {
			r.quarantine(r.journalPath(id), "stream journal", id, errors.New("no snapshot to replay onto"))
		}
	}
	r.opts.Metrics.setStreams(len(r.streams))
	return nil
}

// restoreStream rebuilds one stream from its snapshot and journal. The
// journal replays through AppendAtCtx under denyGate, which makes the
// replay exact: no journaled append ran a refit, and a gate that always
// denies reproduces the recorded deferrals. A torn tail (an append that was
// never acknowledged) is dropped; a corrupt record quarantines the journal
// as .corrupt after the records before it have been replayed. Either way,
// and when the journal holds records the snapshot already subsumes, the
// stream is compacted, so no later append lands behind a bad tail.
func (r *Registry) restoreStream(id string, snap snapshot, snapBytes int64) (*stream, error) {
	s := core.RestoreStream(r.opts.StreamFit, snap.state)
	st := &stream{id: id, s: s, refits: snap.refits, seq: snap.journalSeq, snapBytes: snapBytes}
	path := r.journalPath(id)
	data, err := r.fs.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("registry: reading stream journal %q: %w", id, err)
	}
	sc, derr := decodeJournal(data, st.seq)
	s.SetRefitJitter(jitterFor(id))
	s.SetRefitGate(denyGate{})
	for _, rec := range sc.recs {
		got, err := s.AppendAtCtx(context.Background(), rec.at, rec.values...)
		if err != nil {
			derr = fmt.Errorf("journal record %d: %w", rec.seq, err)
			break
		}
		// The record is in the state now, diverged or not.
		st.seq = rec.seq
		if got.Deferred != rec.deferred {
			derr = fmt.Errorf("journal record %d: replay does not reproduce the recorded append", rec.seq)
			break
		}
	}
	retention := s.Retention()
	r.configureStream(id, s)
	st.jrnBytes = int64(len(data))
	if derr != nil {
		r.quarantine(path, "stream journal", id, derr)
	}
	if derr != nil || sc.torn || sc.stale > 0 || retention != s.Retention() {
		if err := r.compactStream(st); err != nil {
			// Not fatal: the stream stays dirty and its next append retries.
			r.opts.Metrics.persistError()
			r.logger().Error("registry: compacting recovered stream", "id", id, "err", err)
		}
	}
	return st, nil
}

// validateStreamState sanity-checks a fitted snapshot by materialising its
// model through the same validation Put applies.
func validateStreamState(state *core.StreamState) error {
	probe := core.RestoreStream(core.FitOptions{}, *state)
	m := probe.Model()
	if m == nil {
		return errors.New("fitted snapshot has no model")
	}
	return m.Validate()
}

// encodeSeq maps missing ticks to JSON null.
func encodeSeq(seq []float64) []*float64 {
	out := make([]*float64, len(seq))
	for i, v := range seq {
		if tensor.IsMissing(v) {
			continue
		}
		v := v
		out[i] = &v
	}
	return out
}

// decodeSeq maps JSON null back to the missing sentinel.
func decodeSeq(seq []*float64) []float64 {
	out := make([]float64, len(seq))
	for i, p := range seq {
		if p == nil {
			out[i] = tensor.Missing
			continue
		}
		out[i] = *p
	}
	return out
}
