package main

import (
	"fmt"
	"time"

	"capsys/internal/engine"
	"capsys/internal/statebackend"
)

// wireEntry and wireBatch mirror, field for field, the payload of the
// network transport's data frames. gob encodes structs by field name and
// type, so encoding these produces the bytes the transport ships.
type wireEntry struct {
	Key    string
	Value  any
	Time   int64
	Size   int
	Ingest int64
}

type wireBatch struct {
	Task    engine.WireTaskID
	In      int
	Ch      int
	Entries []wireEntry
}

// codecRounds is how many times the codec probe replays its sample.
const codecRounds = 5

// codecProbe replays sampled records, in batches of the transport's batch
// size, through the public frame codec: EncodePayload and AppendFrame on the
// sending side, DecodeFrame and DecodePayload on the receiving side. It
// returns per-record encode and decode times and frame bytes per record.
func codecProbe(sample []engine.Record, batchSize int) (encodeNS, decodeNS, bytesPerRec float64, err error) {
	var batches []wireBatch
	for lo := 0; lo < len(sample); lo += batchSize {
		hi := lo + batchSize
		if hi > len(sample) {
			hi = len(sample)
		}
		b := wireBatch{Task: engine.WireTaskID{Op: "probe", Index: len(batches)}}
		for _, rec := range sample[lo:hi] {
			b.Entries = append(b.Entries, wireEntry{Key: rec.Key, Value: rec.Value, Time: rec.Time, Size: rec.Size, Ingest: 1 + rec.Time})
		}
		batches = append(batches, b)
	}
	if len(batches) == 0 {
		return 0, 0, 0, fmt.Errorf("codec probe: no sampled records")
	}
	var enc, dec time.Duration
	var records, bytes int64
	var buf []byte
	for round := 0; round < codecRounds; round++ {
		for _, b := range batches {
			t0 := time.Now()
			payload, err := engine.EncodePayload(b)
			if err != nil {
				return 0, 0, 0, err
			}
			buf = engine.AppendFrame(buf[:0], engine.Frame{Type: engine.FrameData, Payload: payload})
			t1 := time.Now()
			f, n, err := engine.DecodeFrame(buf)
			if err != nil {
				return 0, 0, 0, err
			}
			var back wireBatch
			if err := engine.DecodePayload(f.Payload, &back); err != nil {
				return 0, 0, 0, err
			}
			t2 := time.Now()
			if len(back.Entries) != len(b.Entries) {
				return 0, 0, 0, fmt.Errorf("codec probe: %d entries decoded from %d", len(back.Entries), len(b.Entries))
			}
			enc += t1.Sub(t0)
			dec += t2.Sub(t1)
			records += int64(len(b.Entries))
			bytes += int64(n)
		}
	}
	return float64(enc) / float64(records), float64(dec) / float64(records), float64(bytes) / float64(records), nil
}

// stateRounds is how many times the state probe replays its images.
const stateRounds = 3

// stateProbe replays per-task window-state images through the public state
// backend: Namespace.Restore into fresh namespaces, Namespace.Snapshot of
// them, and Repartition from oldP to newP tasks. It reports each as
// milliseconds per MB of stored state and returns the snapshot cost.
func stateProbe(r *report, images [][]byte, oldP, newP int) (float64, error) {
	var stored int
	var restore, snapshot, repartition []float64
	for round := 0; round < stateRounds; round++ {
		store := statebackend.NewStore(nil, statebackend.Options{})
		var spaces []*statebackend.Namespace
		t0 := time.Now()
		for i, img := range images {
			ns := store.Namespace(fmt.Sprintf("probe[%d]", i))
			if img != nil {
				if err := ns.Restore(img); err != nil {
					return 0, err
				}
			}
			spaces = append(spaces, ns)
		}
		t1 := time.Now()
		for _, ns := range spaces {
			if _, err := ns.Snapshot(); err != nil {
				return 0, err
			}
		}
		t2 := time.Now()
		if _, _, err := statebackend.Repartition(images, oldP, newP, statebackend.DefaultKeyGroups); err != nil {
			return 0, err
		}
		t3 := time.Now()
		if stored == 0 {
			for _, ns := range spaces {
				stored += ns.StoredBytes()
			}
			if stored == 0 {
				return 0, fmt.Errorf("state probe: no state captured")
			}
		}
		mb := float64(stored) / 1e6
		restore = append(restore, float64(t1.Sub(t0))/1e6/mb)
		snapshot = append(snapshot, float64(t2.Sub(t1))/1e6/mb)
		repartition = append(repartition, float64(t3.Sub(t2))/1e6/mb)
	}
	r.set("statebackend.restore_ms_per_mb", median(restore))
	r.set("statebackend.snapshot_ms_per_mb", median(snapshot))
	r.set("statebackend.repartition_ms_per_mb", median(repartition))
	r.note("state probe: %d images holding %.2f MB, repartitioned %d -> %d tasks", len(images), float64(stored)/1e6, oldP, newP)
	return median(snapshot), nil
}
