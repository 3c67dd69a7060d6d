package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"netmaster/internal/server"
)

var inf = math.Inf(1)

// stopAt ends a loop at a deadline or after a per-client op budget,
// whichever comes first (a zero field is no limit).
type stopAt struct {
	deadline time.Time
	count    int
}

func (s stopAt) done(n int) bool {
	return (s.count > 0 && n >= s.count) || (!s.deadline.IsZero() && !time.Now().Before(s.deadline))
}

// recorder hands out op IDs and keeps request and response bodies for
// the first few ops of each endpoint when the run is traced.
type recorder struct {
	ids     atomic.Int64
	traced  bool
	replays int
	mu      sync.Mutex
	kept    map[string]int
}

// take reports whether the next op (or plan cycle) under key keeps its
// bodies: in a traced run, the first replays of each key do.
func (r *recorder) take(key string) bool {
	if !r.traced {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.kept == nil {
		r.kept = map[string]int{}
	}
	if r.kept[key] >= r.replays {
		return false
	}
	r.kept[key]++
	return true
}

// send runs one op. A kept op retains its request and response bodies
// for replay; keepResp retains the response body for the caller.
func (r *recorder) send(c *client, name, method, path string, body []byte, due time.Time, keep, keepResp bool) *op {
	o := &op{ID: r.ids.Add(1), Name: name, Due: due, Method: method, Path: path, Kept: keep}
	c.do(o, method, path, body, keep || keepResp)
	if keep {
		o.Body = body
	}
	return o
}

// ingestLoop is the closed-loop batch writer: each of clients sends its
// next batch once the previous one is acknowledged. Batches walk the
// fleet in order and move each device to its next template, so every
// write changes the device and the fleet stays the same size.
func (fx *fixture) ingestLoop(clients int, stop stopAt, tag string) []*op {
	n := int64(len(fx.fleet.ids) / fx.sz.Batch)
	return fx.closedLoop(clients, stop, func(c *client) *op {
		b := fx.batches.Add(1) - 1
		body := fx.nextBody(fmt.Sprintf("%s-%d-%d", tag, fx.rep, b), int(b%n)*fx.sz.Batch, fx.sz.Batch)
		o := fx.rec.send(c, "ingest_batch", http.MethodPost, "/v1/fleet/ingest:batch", body, time.Time{}, fx.rec.take("ingest_batch"), true)
		fx.checkAck(o, fx.sz.Batch)
		return o
	})
}

// checkAck fails an ingest op whose ack does not accept every item.
func (fx *fixture) checkAck(o *op, items int) {
	o.Items = items
	if !o.Failed {
		var ack server.BatchIngestResponse
		if err := json.Unmarshal(o.RespBody, &ack); err != nil || ack.Accepted != items || ack.Failed != 0 {
			o.Failed = true
		}
	}
	if !o.Kept {
		o.RespBody = nil
	}
}

// readLoop is the closed-loop fleet reader: it reads the report and,
// after every reportsPer reports, the fleet metrics exposition.
func (fx *fixture) readLoop(stop stopAt, reportsPer int) []*op {
	k := 0
	return fx.closedLoop(1, stop, func(c *client) *op {
		k++
		if k%(reportsPer+1) != 0 {
			return fx.rec.send(c, "fleet_report", http.MethodGet, "/v1/fleet/report", nil, time.Time{}, fx.rec.take("fleet_report"), false)
		}
		return fx.rec.send(c, "fleet_metrics", http.MethodGet, "/metrics?scope=fleet", nil, time.Time{}, fx.rec.take("fleet_metrics"), false)
	})
}

// closedLoop runs clients goroutines, each issuing one op after another
// until stop, and returns every op. Each op's gap since the client's
// previous op is the generator's own lateness.
func (fx *fixture) closedLoop(clients int, stop stopAt, one func(c *client) *op) []*op {
	out := make([][]*op, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; !stop.done(n); n++ {
				out[w] = append(out[w], one(fx.c))
			}
			closedLate(out[w])
		}(w)
	}
	wg.Wait()
	var all []*op
	for _, ops := range out {
		all = append(all, ops...)
	}
	return all
}

// closedLate sets each op's lateness from one client's ordered ops.
func closedLate(ops []*op) {
	for i := 1; i < len(ops); i++ {
		ops[i].Late = ms(ops[i].Start.Sub(ops[i-1].End))
	}
}

// writer is fleet-read's open-loop re-ingest: a batch of WriterBatch
// existing devices is due every WriterPeriod whatever the daemon does.
// Each batch moves its devices to their next template, so every read
// sees that many changed devices. Latency runs from the due time.
type writer struct {
	fx  *fixture
	ops []*op
}

func (w *writer) run(start time.Time, stop stopAt) {
	fx := w.fx
	period := time.Duration(fx.sz.WriterPeriod) * time.Millisecond
	n := len(fx.fleet.ids)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !stop.deadline.IsZero() && !due.Before(stop.deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		body := fx.nextBody(fmt.Sprintf("writer-%d-%d", fx.rep, k), (k*fx.sz.WriterBatch)%n, fx.sz.WriterBatch)
		o := fx.rec.send(fx.c, "ingest_batch", http.MethodPost, "/v1/fleet/ingest:batch", body, due, fx.rec.take("ingest_batch"), true)
		fx.checkAck(o, fx.sz.WriterBatch)
		o.Late = ms(o.Start.Sub(due))
		w.ops = append(w.ops, o)
	}
}

// planState is one plan device's progress: the absolute day it folds
// next, its current profile ID, and every ID the daemon returned.
type planState struct {
	user *planUser
	idx  int // index among the plan devices
	day  int
	id   string
	// visits counts the cycles run for the device, sims its simulates.
	visits, sims int
	base         string   // the ID after folding the history
	ids          []string // ids[n] is the ID after folding day HistoryDays+n
	// sample holds the schedule responses kept for the core check, by
	// the day they planned.
	sample map[int][]byte
}

// planLoop runs plan cycles on clients goroutines. Client w owns the
// devices with index ≡ w (mod clients), so no device is ever in two
// cycles at once, and visits them round-robin: next the one with the
// fewest cycles so far, so the rotation carries over between loops.
func (fx *fixture) planLoop(clients int, stop stopAt) (ops []*op, cycles int) {
	out := make([][]*op, clients)
	counts := make([]int, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []*planState
			for d := w; d < len(fx.plan); d += clients {
				mine = append(mine, fx.plan[d])
			}
			for n := 0; !stop.done(n); n++ {
				ps := mine[0]
				for _, q := range mine {
					if q.visits < ps.visits {
						ps = q
					}
				}
				cycleOps, ok := fx.planCycle(ps)
				out[w] = append(out[w], cycleOps...)
				if ok {
					counts[w]++
				}
			}
			closedLate(out[w])
		}(w)
	}
	wg.Wait()
	for w := range out {
		ops = append(ops, out[w]...)
		cycles += counts[w]
	}
	return ops, cycles
}

// planCycle folds the device's next day, schedules the day after it
// and, every SimEvery-th cycle, simulates a week dual-radio.
func (fx *fixture) planCycle(ps *planState) ([]*op, bool) {
	sz := fx.sz
	k := ps.day
	j := (k - sz.HistoryDays) % sz.ContentDays
	ps.visits++
	// A traced run keeps whole cycles, so its replay meets every profile
	// ID in the order the daemon minted them.
	kept := fx.rec.take("plan_cycle")
	upd := fx.rec.send(fx.c, "profile_update", http.MethodPost, "/v1/profile/update", ps.user.updateBody(ps.id, j), time.Time{}, kept, true)
	ops := []*op{upd}
	if upd.Failed {
		return ops, false
	}
	var ur server.ProfileUpdateResponse
	if err := json.Unmarshal(upd.RespBody, &ur); err != nil {
		upd.Failed = true
		return ops, false
	}
	if !kept {
		upd.RespBody = nil
	}
	ps.id = ur.ProfileID
	ps.ids = append(ps.ids, ur.ProfileID)
	ps.day++

	next := (k + 1 - sz.HistoryDays) % sz.ContentDays
	body, _ := json.Marshal(ps.user.scheduleRequest(ps.id, k+1, next))
	keep := len(ps.sample) == 0 && fx.sampled.Add(1) <= int64(sz.CheckSchedules)
	sch := fx.rec.send(fx.c, "schedule", http.MethodPost, "/v1/schedule", body, time.Time{}, kept, keep)
	ops = append(ops, sch)
	if keep && !sch.Failed {
		ps.sample = map[int][]byte{k + 1: sch.RespBody}
	}
	if !kept && !keep {
		sch.RespBody = nil
	}
	if sch.Failed {
		return ops, false
	}

	// Devices simulate on staggered cycles and alternate policies, so the
	// simulates spread over every device and both policies.
	if (ps.visits+ps.idx)%sz.SimEvery == 0 {
		pol := ps.sims % len(simPolicies)
		ps.sims++
		sim := fx.rec.send(fx.c, "simulate", http.MethodPost, "/v1/simulate", ps.user.simBody[pol], time.Time{}, kept, false)
		ops = append(ops, sim)
		if sim.Failed {
			return ops, false
		}
	}
	return ops, true
}

// lateness collects the ops' generator lateness.
func lateness(ops []*op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.Late
	}
	return out
}

// byName collects the latencies of one endpoint's ops.
func byName(ops []*op, name string) []float64 {
	var out []float64
	for _, o := range ops {
		if o.Name == name {
			out = append(out, o.ms())
		}
	}
	return out
}
