package registry

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"

	"dspot/internal/numcheck"
)

// Stream journal: persistence of one stream is a snapshot (streams/<id>.json,
// written atomically) plus an append-only journal (streams/<id>.journal)
// of the appends made since. An append that attempts no refit and changes
// no option costs one small record and one fsync instead of a rewrite of
// the whole snapshot; boot restores the snapshot and replays the journal
// (see loadStreams).
//
// Record layout, little-endian:
//
//	u32 payload length | u32 CRC-32C of payload | payload
//	payload = u64 seq | i64 at | u8 flags | u32 n | n × u64 float64 bits
//
// seq numbers the stream's journaled appends, contiguously; the snapshot
// records the last seq it subsumes (journal_seq). at is the append's
// position (-1 = at the head). flags bit 0 is the append receipt's Deferred
// bit. Values are raw float64 bits, so NaN marks a missing tick exactly as
// it does in memory.

const (
	journalHeader  = 8             // length + CRC
	journalFixed   = 8 + 8 + 1 + 4 // seq, at, flags, n
	journalDefer   = 1 << 0
	maxJournalTick = 1 << 16 // appends of more ticks compact instead
)

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// journalRecord is one decoded journaled append.
type journalRecord struct {
	seq      uint64
	at       int64
	deferred bool
	values   []float64
}

// journalRecordSize is the encoded size of a record holding n ticks.
func journalRecordSize(n int) int64 {
	return journalHeader + journalFixed + 8*int64(n)
}

// encodeJournalRecord renders one record.
func encodeJournalRecord(seq uint64, at int64, values []float64, deferred bool) []byte {
	buf := make([]byte, journalRecordSize(len(values)))
	p := buf[journalHeader:]
	binary.LittleEndian.PutUint64(p[0:], seq)
	binary.LittleEndian.PutUint64(p[8:], uint64(at))
	if deferred {
		p[16] = journalDefer
	}
	binary.LittleEndian.PutUint32(p[17:], uint32(len(values)))
	for i, v := range values {
		binary.LittleEndian.PutUint64(p[journalFixed+8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(p)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(p, journalCRC))
	return buf
}

// journalScan is what decodeJournal recovered from one journal file.
type journalScan struct {
	recs  []journalRecord // records past the snapshot, in seq order
	stale int             // records the snapshot already subsumes
	torn  bool            // the file ends in an incomplete record
}

// decodeJournal parses a journal whose snapshot subsumes every record up
// to seq after. It is the trust boundary for journal bytes (fuzzed by
// FuzzDecodeJournal): lengths are bounded, every record must pass its CRC,
// carry no unknown flag, a position of at least -1 and values that pass
// numcheck.Sequence, and sequence numbers must run contiguously, the first
// one past the snapshot being after+1. An incomplete final record is a
// torn tail — a write that was never acknowledged — and is dropped. Any
// other defect is an error; the records before it are still returned.
func decodeJournal(data []byte, after uint64) (journalScan, error) {
	var sc journalScan
	var prev uint64
	for off, i := 0, 0; off < len(data); i++ {
		rest := data[off:]
		if len(rest) < journalHeader {
			sc.torn = true
			break
		}
		n := binary.LittleEndian.Uint32(rest)
		if n < journalFixed || n > uint32(journalRecordSize(maxJournalTick)-journalHeader) ||
			(n-journalFixed)%8 != 0 {
			return sc, fmt.Errorf("journal record %d: bad length %d", i, n)
		}
		if len(rest)-journalHeader < int(n) {
			sc.torn = true
			break
		}
		p := rest[journalHeader : journalHeader+int(n)]
		if crc32.Checksum(p, journalCRC) != binary.LittleEndian.Uint32(rest[4:]) {
			return sc, fmt.Errorf("journal record %d: checksum mismatch", i)
		}
		rec := journalRecord{
			seq: binary.LittleEndian.Uint64(p[0:]),
			at:  int64(binary.LittleEndian.Uint64(p[8:])),
		}
		flags := p[16]
		ticks := binary.LittleEndian.Uint32(p[17:])
		switch {
		case flags&^journalDefer != 0:
			return sc, fmt.Errorf("journal record %d: unknown flags %#x", i, flags)
		case rec.at < -1:
			return sc, fmt.Errorf("journal record %d: position %d", i, rec.at)
		case int(ticks) != (int(n)-journalFixed)/8:
			return sc, fmt.Errorf("journal record %d: %d ticks in %d bytes", i, ticks, n)
		case i > 0 && rec.seq != prev+1:
			return sc, fmt.Errorf("journal record %d: sequence %d after %d", i, rec.seq, prev)
		case rec.seq > after && rec.seq != after+1 && len(sc.recs) == 0:
			return sc, fmt.Errorf("journal record %d: sequence %d, snapshot ends at %d", i, rec.seq, after)
		}
		rec.deferred = flags&journalDefer != 0
		rec.values = make([]float64, ticks)
		for k := range rec.values {
			rec.values[k] = math.Float64frombits(binary.LittleEndian.Uint64(p[journalFixed+8*k:]))
		}
		if err := numcheck.Sequence("journal record", rec.values); err != nil {
			return sc, fmt.Errorf("journal record %d: %w", i, err)
		}
		prev = rec.seq
		off += journalHeader + int(n)
		if rec.seq <= after {
			sc.stale++
			continue
		}
		sc.recs = append(sc.recs, rec)
	}
	return sc, nil
}

func (r *Registry) journalPath(id string) string {
	return filepath.Join(r.dir, streamsDir, id+".journal")
}

// appendJournal writes one record at the end of the stream's journal and
// fsyncs it: once it returns nil the append survives a crash. The file is
// opened per append (no cached handles). When the journal may not exist
// yet the directory is fsynced too, so the new file's name is durable.
func (r *Registry) appendJournal(st *stream, rec []byte) error {
	path := r.journalPath(st.id)
	f, err := r.fs.OpenAppend(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if st.jrnBytes == 0 {
		if err := r.fs.SyncDir(filepath.Dir(path)); err != nil {
			return err
		}
	}
	st.jrnBytes += int64(len(rec))
	return nil
}

// denyGate refuses every refit. Journal replay runs under it: no journaled
// append ran a refit, and a gate that always denies reproduces exactly the
// deferrals the live stream saw.
type denyGate struct{}

func (denyGate) TryAcquire() (func(), bool) { return nil, false }
