// Batch endpoints: POST /v1/fleet/ingest:batch and POST
// /v1/schedule:batch move many devices per round trip — the bulk paths
// the sharded serve tier is sized by. Both follow the same
// partial-failure protocol: the envelope answers 200 whenever it could
// be processed at all, and each item succeeds or fails on its own in a
// result array parallel to the request's items. Item work fans out over
// the server's bounded worker pool (parallel.ForEachNCtx), writing
// results by index so the array order matches the item order at any
// parallelism.
//
// Ingest batches may carry a request_id idempotency key. The first
// commit journals the accepted items together with the exact response
// bytes; a retried duplicate is acked with those original bytes (header
// X-Netmaster-Idempotent-Replay: true) and applies nothing — the dedup
// cache is rebuilt from the journal on recovery, so the guarantee
// survives a crash.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"

	"netmaster/internal/parallel"
)

// BatchItemError is one item's failure inside a batch response: the
// same kind/message vocabulary as the top-level error body, without the
// envelope.
type BatchItemError struct {
	Kind string `json:"kind"`
	Msg  string `json:"message"`
}

// itemError flattens a handler error into a batch item error.
func itemError(err error) *BatchItemError {
	var ae *apiError
	if errors.As(err, &ae) {
		return &BatchItemError{Kind: ae.Kind, Msg: ae.Msg}
	}
	return &BatchItemError{Kind: "internal", Msg: err.Error()}
}

// BatchIngestRequest is the body of POST /v1/fleet/ingest:batch.
type BatchIngestRequest struct {
	// RequestID is an optional idempotency key. When set, the first
	// acknowledged commit is journaled together with its response
	// bytes, and any retry of the same RequestID is acked with those
	// bytes without re-applying the items.
	RequestID string          `json:"request_id,omitempty"`
	Items     []IngestRequest `json:"items"`
}

// BatchIngestResult is one item's outcome, at the same index as its
// request item.
type BatchIngestResult struct {
	DeviceID string          `json:"device_id"`
	OK       bool            `json:"ok"`
	Error    *BatchItemError `json:"error,omitempty"`
}

// BatchIngestResponse is the body of POST /v1/fleet/ingest:batch.
// Devices is the fleet size after the batch (on a router: summed over
// the shards the batch touched).
type BatchIngestResponse struct {
	RequestID string              `json:"request_id,omitempty"`
	Accepted  int                 `json:"accepted"`
	Failed    int                 `json:"failed"`
	Devices   int                 `json:"devices"`
	Results   []BatchIngestResult `json:"results"`
}

// BatchScheduleRequest is the body of POST /v1/schedule:batch.
type BatchScheduleRequest struct {
	Items []ScheduleRequest `json:"items"`
}

// BatchScheduleResult is one item's outcome, at the same index as its
// request item. DeviceID echoes the item's routing key, if any.
type BatchScheduleResult struct {
	DeviceID string            `json:"device_id,omitempty"`
	OK       bool              `json:"ok"`
	Response *ScheduleResponse `json:"response,omitempty"`
	Error    *BatchItemError   `json:"error,omitempty"`
}

// BatchScheduleResponse is the body of POST /v1/schedule:batch.
type BatchScheduleResponse struct {
	Succeeded int                   `json:"succeeded"`
	Failed    int                   `json:"failed"`
	Results   []BatchScheduleResult `json:"results"`
}

// encodeJSON renders v exactly as writeJSON would put it on the wire
// (indented, trailing newline), so journaled ack bytes replay
// byte-identically.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeRaw sends pre-encoded JSON bytes.
func writeRaw(w http.ResponseWriter, code int, body []byte) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, err := w.Write(body)
	return err
}

func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) error {
	var req BatchIngestRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.Items) == 0 {
		return &apiError{Code: http.StatusBadRequest, Kind: "bad_request", Msg: "items must be non-empty"}
	}

	results := make([]BatchIngestResult, len(req.Items))
	// Item validation fans out over the bounded request pool; items are
	// independent and results are slot-indexed, so the array order is
	// the item order at any parallelism.
	if err := parallel.ForEachNCtx(r.Context(), s.workers(), len(req.Items), func(i int) error {
		it := &req.Items[i]
		results[i].DeviceID = it.DeviceID
		if err := checkIngest(it); err != nil {
			results[i].Error = &BatchItemError{Kind: "bad_request", Msg: err.Error()}
		}
		return nil
	}); err != nil {
		return err
	}
	accepted := make([]*IngestRequest, 0, len(req.Items))
	for i := range req.Items {
		if results[i].Error == nil {
			accepted = append(accepted, &req.Items[i])
		}
	}

	ack, replayed, err := s.ingestBatchCommit(req.RequestID, accepted, results)
	if err != nil {
		return err
	}
	if s.store != nil && !replayed {
		s.maybeCompact()
	}
	if replayed {
		w.Header().Set("X-Netmaster-Idempotent-Replay", "true")
	}
	return writeRaw(w, http.StatusOK, ack)
}

// ingestBatchCommit is the one commit path for ingest batches: under
// stateMu it resolves the idempotency key, journals the accepted items
// with their ack bytes (durable mode), applies them to the fleet, and
// caches the ack for future duplicates. A failed journal append does
// not fail the envelope — the accepted items degrade to per-item
// read_only failures, and nothing is acked that was not fsynced first.
func (s *Server) ingestBatchCommit(reqID string, accepted []*IngestRequest, results []BatchIngestResult) (ack []byte, replayed bool, err error) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()

	// Dedup check under the lock: concurrent retries of one request_id
	// commit exactly once, every other caller replays the first ack.
	if reqID != "" {
		if v, ok := s.batchAcks.Get(reqID); ok {
			return v.([]byte), true, nil
		}
	}

	// Fleet size after the batch, computed before applying so the ack
	// bytes can be journaled ahead of the apply.
	s.fleetMu.Lock()
	devices := len(s.fleet)
	fresh := map[string]bool{}
	for _, it := range accepted {
		if _, ok := s.fleet[it.DeviceID]; !ok && !fresh[it.DeviceID] {
			fresh[it.DeviceID] = true
			devices++
		}
	}
	s.fleetMu.Unlock()

	build := func() ([]byte, error) {
		resp := BatchIngestResponse{RequestID: reqID, Devices: devices, Results: results}
		for i := range results {
			if results[i].Error == nil {
				results[i].OK = true
				resp.Accepted++
			} else {
				results[i].OK = false
				resp.Failed++
			}
		}
		return encodeJSON(resp)
	}

	if s.store != nil && len(accepted) > 0 {
		ack, err := build()
		if err != nil {
			return nil, false, &apiError{Code: http.StatusInternalServerError, Kind: "internal", Msg: err.Error()}
		}
		items := make([]IngestRequest, len(accepted))
		for i, it := range accepted {
			items[i] = *it
		}
		payload, err := json.Marshal(&walRecord{Kind: "ingest_batch", RequestID: reqID, Items: items, Ack: ack})
		if err != nil {
			return nil, false, &apiError{Code: http.StatusInternalServerError, Kind: "internal", Msg: err.Error()}
		}
		if _, aerr := s.store.Append(payload); aerr != nil {
			// Journal dead: every accepted item fails read_only; the
			// fleet is untouched and nothing is cached for replay.
			ro := errReadOnly(aerr)
			for i := range results {
				if results[i].Error == nil {
					results[i].Error = &BatchItemError{Kind: ro.Kind, Msg: ro.Msg}
				}
			}
			s.fleetMu.Lock()
			devices = len(s.fleet)
			s.fleetMu.Unlock()
			ack, err := build()
			if err != nil {
				return nil, false, &apiError{Code: http.StatusInternalServerError, Kind: "internal", Msg: err.Error()}
			}
			return ack, false, nil
		}
		s.mStoreAppends.Inc()
		for _, it := range accepted {
			s.applyIngest(it)
		}
		if reqID != "" {
			s.batchAcks.Put(reqID, ack)
		}
		return ack, false, nil
	}

	// In-memory (or nothing accepted): apply and ack.
	ack, berr := build()
	if berr != nil {
		return nil, false, &apiError{Code: http.StatusInternalServerError, Kind: "internal", Msg: berr.Error()}
	}
	for _, it := range accepted {
		s.applyIngest(it)
	}
	if reqID != "" {
		s.batchAcks.Put(reqID, ack)
	}
	return ack, false, nil
}

func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) error {
	var req BatchScheduleRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.Items) == 0 {
		return &apiError{Code: http.StatusBadRequest, Kind: "bad_request", Msg: "items must be non-empty"}
	}
	results := make([]BatchScheduleResult, len(req.Items))
	if err := parallel.ForEachNCtx(r.Context(), s.workers(), len(req.Items), func(i int) error {
		it := &req.Items[i]
		resp, _, serr := s.scheduleOne(r.Context(), it)
		if serr != nil {
			// The whole request's deadline expiring fails the envelope;
			// anything else is this item's own answer.
			if r.Context().Err() != nil {
				return r.Context().Err()
			}
			results[i] = BatchScheduleResult{DeviceID: it.DeviceID, Error: itemError(serr)}
			return nil
		}
		results[i] = BatchScheduleResult{DeviceID: it.DeviceID, OK: true, Response: resp}
		return nil
	}); err != nil {
		return err
	}
	resp := BatchScheduleResponse{Results: results}
	for i := range results {
		if results[i].OK {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}
