// Durable serve state. With Config.StateDir set, every acknowledged
// /v1/fleet/ingest and /v1/profile/update is appended to a write-ahead
// journal (internal/store) before the response is written, and the full
// state — the sorted-device fleet plus the journaled sketches of the
// cached profiles — is periodically compacted into a snapshot. Startup
// recovery loads the latest valid snapshot, replays the journal tail
// and re-compacts, so a crashed daemon comes back with byte-identical
// fleet reports and profile IDs. When the journal becomes unwritable the daemon degrades
// to read-only (typed 503 on mutating endpoints) instead of silently
// dropping ingests.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"netmaster/internal/habit"
	"netmaster/internal/store"
)

// walRecord is one journal entry: exactly one of the payloads is set.
type walRecord struct {
	// Kind is "ingest", "ingest_batch" or "profile".
	Kind string `json:"kind"`
	// Ingest carries one device's /v1/fleet/ingest body.
	Ingest *IngestRequest `json:"ingest,omitempty"`
	// ProfileID and Sketch carry one acknowledged profile state: the
	// sketch-state hash and the habit sketch's binary encoding.
	ProfileID string `json:"profile_id,omitempty"`
	Sketch    []byte `json:"sketch,omitempty"`
	// RequestID, Items and Ack carry one acknowledged ingest batch: the
	// idempotency key (may be empty), the accepted items, and the exact
	// response bytes the batch was acked with — replayed into the dedup
	// cache on recovery so a post-crash retry still deduplicates.
	RequestID string          `json:"request_id,omitempty"`
	Items     []IngestRequest `json:"items,omitempty"`
	Ack       []byte          `json:"ack,omitempty"`
}

// snapshotDevice is one device inside a snapshot document.
type snapshotDevice struct {
	DeviceID string         `json:"device_id"`
	Ingest   *IngestRequest `json:"ingest"`
}

// snapshotProfile is one journaled profile inside a snapshot document.
type snapshotProfile struct {
	ID     string `json:"id"`
	Sketch []byte `json:"sketch"`
}

// snapshotAck is one batch-ingest idempotency entry inside a snapshot.
type snapshotAck struct {
	RequestID string `json:"request_id"`
	Ack       []byte `json:"ack"`
}

// snapshotDoc is the compaction payload: the whole durable state.
// Devices are sorted by ID; profiles and batch acks run least- to
// most-recently used so re-insertion rebuilds the same recency order.
type snapshotDoc struct {
	Devices   []snapshotDevice  `json:"devices"`
	Profiles  []snapshotProfile `json:"profiles"`
	BatchAcks []snapshotAck     `json:"batch_acks,omitempty"`
}

// errReadOnly is the typed degraded-mode answer for mutating endpoints
// once the journal is unwritable.
func errReadOnly(cause error) *apiError {
	return &apiError{Code: http.StatusServiceUnavailable, Kind: "read_only",
		Msg: fmt.Sprintf("state journal unwritable, serving reads only: %v", cause)}
}

// openStore recovers the state directory into the freshly built server
// and re-compacts, leaving a snapshot that covers everything recovered
// and an empty journal. Interior corruption aborts startup: refusing to
// serve beats silently forgetting acknowledged state.
func (s *Server) openStore() error {
	st, rec, err := store.Open(store.Config{Dir: s.cfg.StateDir, FS: s.cfg.StateFS})
	if err != nil {
		return fmt.Errorf("server: state recovery: %w", err)
	}
	s.store = st
	if rec.SnapshotPayload != nil {
		var doc snapshotDoc
		if err := json.Unmarshal(rec.SnapshotPayload, &doc); err != nil {
			return fmt.Errorf("server: state recovery: %w: snapshot body: %v", store.ErrCorrupt, err)
		}
		for _, d := range doc.Devices {
			if d.Ingest == nil || d.Ingest.DeviceID == "" {
				return fmt.Errorf("server: state recovery: %w: snapshot device entry without ingest body", store.ErrCorrupt)
			}
			s.applyIngest(d.Ingest)
		}
		for _, p := range doc.Profiles {
			if err := s.applyProfile(p.ID, p.Sketch); err != nil {
				return err
			}
		}
		for _, a := range doc.BatchAcks {
			if a.RequestID == "" || len(a.Ack) == 0 {
				return fmt.Errorf("server: state recovery: %w: snapshot batch-ack entry without id or body", store.ErrCorrupt)
			}
			s.batchAcks.Put(a.RequestID, a.Ack)
		}
	}
	for _, payload := range rec.Records {
		var w walRecord
		if err := json.Unmarshal(payload, &w); err != nil {
			return fmt.Errorf("server: state recovery: %w: journal record body: %v", store.ErrCorrupt, err)
		}
		switch w.Kind {
		case "ingest":
			if w.Ingest == nil || w.Ingest.DeviceID == "" {
				return fmt.Errorf("server: state recovery: %w: ingest record without body", store.ErrCorrupt)
			}
			s.applyIngest(w.Ingest)
		case "ingest_batch":
			if len(w.Items) == 0 {
				return fmt.Errorf("server: state recovery: %w: ingest_batch record without items", store.ErrCorrupt)
			}
			for i := range w.Items {
				if w.Items[i].DeviceID == "" {
					return fmt.Errorf("server: state recovery: %w: ingest_batch item without device_id", store.ErrCorrupt)
				}
				s.applyIngest(&w.Items[i])
			}
			if w.RequestID != "" && len(w.Ack) > 0 {
				s.batchAcks.Put(w.RequestID, w.Ack)
			}
		case "profile":
			if err := s.applyProfile(w.ProfileID, w.Sketch); err != nil {
				return err
			}
		default:
			return fmt.Errorf("server: state recovery: %w: unknown record kind %q", store.ErrCorrupt, w.Kind)
		}
		s.mStoreReplays.Inc()
	}
	if rec.TornTail {
		s.mStoreTorn.Inc()
	}
	// Fold the replayed tail into a fresh snapshot so every boot starts
	// from a compacted base.
	if err := s.compactLocked(); err != nil {
		return fmt.Errorf("server: state recovery: %w", err)
	}
	s.mStoreRecovery.Set(float64(rec.Elapsed.Milliseconds()))
	return nil
}

// applyIngest folds one ingest into the fleet map. Every ingest path —
// single, batch and recovery replay — goes through it, and the fresh
// *ingested it stores carries no analysis memo.
func (s *Server) applyIngest(req *IngestRequest) {
	s.fleetMu.Lock()
	s.fleet[req.DeviceID] = &ingested{metrics: req.Metrics, header: req.Header, events: req.Events}
	s.fleetMu.Unlock()
}

// applyProfile restores one journaled profile sketch, refusing blobs
// whose decoded state does not hash back to the recorded ID.
func (s *Server) applyProfile(id string, blob []byte) error {
	sk, err := habit.UnmarshalSketch(blob)
	if err != nil {
		return fmt.Errorf("server: state recovery: %w: profile %s: %v", store.ErrCorrupt, id, err)
	}
	if got := sk.Hash(); got != id {
		return fmt.Errorf("server: state recovery: %w: profile blob hashes to %s, journal says %s",
			store.ErrCorrupt, got, id)
	}
	s.profiles.Put(id, &profileEntry{sketch: sk, profile: sk.Profile(), blob: blob})
	return nil
}

// ingestDurable appends one ingest to the journal and applies it to the
// fleet map as a single atomic mutation (stateMu), so a concurrent
// compaction can never cover a journal record whose effect is not yet
// in the snapshot it writes.
func (s *Server) ingestDurable(req *IngestRequest) error {
	s.stateMu.Lock()
	err := s.journalAppend(&walRecord{Kind: "ingest", Ingest: req})
	if err == nil {
		s.applyIngest(req)
	}
	s.stateMu.Unlock()
	if err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

// persistProfile journals one profile state (id already verified to be
// e.sketch.Hash()) before the handler acks, and returns the entry that
// carries its blob. An ID whose cached entry already has a blob is not
// journaled again: the journal records state transitions, not cache
// traffic. The append and the Put of the entry with its blob share one
// stateMu section, so a compaction never snapshots one without the
// other.
func (s *Server) persistProfile(id string, e *profileEntry) (*profileEntry, error) {
	if e.blob == nil {
		blob, err := e.sketch.MarshalBinary()
		if err != nil {
			return nil, &apiError{Code: http.StatusInternalServerError, Kind: "internal",
				Msg: fmt.Sprintf("serialise profile %s: %v", id, err)}
		}
		e = &profileEntry{sketch: e.sketch, profile: e.profile, blob: blob}
	}
	s.stateMu.Lock()
	if v, ok := s.profiles.Get(id); ok && v.(*profileEntry).blob != nil {
		s.stateMu.Unlock()
		return v.(*profileEntry), nil
	}
	err := s.journalAppend(&walRecord{Kind: "profile", ProfileID: id, Sketch: e.blob})
	if err == nil {
		s.storeProfile(id, e) // takes no lock for an entry with a blob
	}
	s.stateMu.Unlock()
	if err != nil {
		return nil, err
	}
	s.maybeCompact()
	return e, nil
}

// journalAppend appends one record; callers hold stateMu.
func (s *Server) journalAppend(w *walRecord) error {
	payload, err := json.Marshal(w)
	if err != nil {
		return &apiError{Code: http.StatusInternalServerError, Kind: "internal", Msg: err.Error()}
	}
	if _, err := s.store.Append(payload); err != nil {
		return errReadOnly(err)
	}
	s.mStoreAppends.Inc()
	return nil
}

// maybeCompact compacts once the journal has grown past the configured
// record count. Compaction failure is not fatal to the request — the
// journal still holds everything — so the next append retries it.
func (s *Server) maybeCompact() {
	every := s.cfg.CompactEvery
	if every <= 0 {
		every = DefaultCompactEvery
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.store.AppendsSinceCompact() < every || s.store.Unwritable() != nil {
		return
	}
	s.compactLocked()
}

// compactLocked snapshots the full durable state through the store;
// callers hold stateMu (or are still single-threaded inside New).
func (s *Server) compactLocked() error {
	doc := snapshotDoc{Devices: []snapshotDevice{}, Profiles: []snapshotProfile{}}
	s.eachDevice(func(id string, d *ingested) {
		req := &IngestRequest{DeviceID: id, Metrics: d.metrics, Header: d.header, Events: d.events}
		doc.Devices = append(doc.Devices, snapshotDevice{DeviceID: id, Ingest: req})
	})
	s.profiles.each(func(key string, val any) {
		if blob := val.(*profileEntry).blob; blob != nil {
			doc.Profiles = append(doc.Profiles, snapshotProfile{ID: key, Sketch: blob})
		}
	})
	s.batchAcks.each(func(key string, val any) {
		doc.BatchAcks = append(doc.BatchAcks, snapshotAck{RequestID: key, Ack: val.([]byte)})
	})
	payload, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := s.store.Compact(payload); err != nil {
		return err
	}
	s.mStoreCompact.Inc()
	return nil
}

// storeStatus summarises the durable layer for /healthz, nil without a
// state dir.
func (s *Server) storeStatus() *StoreStatus {
	if s.store == nil {
		return nil
	}
	return &StoreStatus{Mode: s.journalMode(), Seq: s.store.Seq(),
		AppendsSinceCompact: s.store.AppendsSinceCompact()}
}

// journalMode is the durable store's mode, "read_write" or "read_only"
// once the journal has failed; it requires a state dir.
func (s *Server) journalMode() string {
	if s.store.Unwritable() != nil {
		return "read_only"
	}
	return "read_write"
}

// PersistedProfileIDs returns the sorted IDs of every cached profile
// that carries its journaled sketch — the set a snapshot holds, and the
// recovery-equality oracle the crash soak compares.
func (s *Server) PersistedProfileIDs() []string {
	ids := []string{}
	s.profiles.each(func(key string, val any) {
		if val.(*profileEntry).blob != nil {
			ids = append(ids, key)
		}
	})
	sort.Strings(ids)
	return ids
}

// Close releases the durable store's journal handle (idempotent; no-op
// without a state dir). Shutdown does not imply Close, so a drained
// server can still be inspected; cmd/netmaster-serve closes on exit.
func (s *Server) Close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}
