package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one netmaster-serve child process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once stderr is drained
	tail *bytes.Buffer // stderr after the listening line, for failures
}

// startDaemon runs bin with -quiet on an ephemeral loopback port and
// waits until it listens.
func startDaemon(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)
	cmd := exec.Command(bin, args...)
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), tail: &bytes.Buffer{}}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		const prefix = "netmaster-serve: listening on http://"
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.HasPrefix(line, prefix) {
				addr <- strings.TrimPrefix(line, prefix)
				sent = true
				continue
			}
			if d.tail.Len() < 1<<16 {
				d.tail.WriteString(line + "\n")
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			err := cmd.Wait()
			return nil, fmt.Errorf("netmaster-serve exited before listening (%v): %s", err, d.tail.String())
		}
		d.base = a
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("netmaster-serve did not listen within 60 s")
	}
	return d, nil
}

// liveHeapMB forces collections in the daemon through its pprof
// endpoint and reads the heap still allocated after them, in MiB: what
// the daemon's state and caches hold, free of the collector's timing.
// It collects twice because a sync.Pool keeps its objects through one
// collection, and encoding/json pools the ~64 MB buffer a snapshot
// compaction encodes into.
func (c *client) liveHeapMB() (float64, error) {
	var o op
	for i := 0; i < 2; i++ {
		o = op{}
		c.do(&o, http.MethodGet, "/debug/pprof/heap?gc=1&debug=1", nil, true)
		if o.Failed {
			return 0, fmt.Errorf("heap profile: status %d", o.Status)
		}
	}
	for _, line := range strings.Split(string(o.RespBody), "\n") {
		if v, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
			b, err := strconv.ParseFloat(v, 64)
			return b / (1 << 20), err
		}
	}
	return 0, fmt.Errorf("heap profile without HeapAlloc")
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after 30 s. It returns once the process has ended.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { <-d.done; exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		return <-exited
	}
}

// client talks to one daemon over at most two keep-alive connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: "http://" + base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// op is one client call, the span the load generator records.
type op struct {
	ID     int64
	Name   string // endpoint
	Method string
	Path   string
	Due    time.Time // scheduled send time (open loop); else Start
	// Late is how long after it was due the generator sent the op: past
	// its schedule in the open loop, past the previous op's end in a
	// closed loop (the generator's own work between ops), in ms.
	Late     float64
	Start    time.Time
	End      time.Time
	Status   int
	Failed   bool
	ReqBytes int
	Resp     int    // response bytes
	Items    int    // devices in an ingest batch
	Kept     bool   // bodies kept for the traced run's replay
	Body     []byte // request body, kept in traced runs for replay
	RespBody []byte // response body, kept when asked for
}

// ms is the op's latency from its due time; +Inf when it failed.
func (o *op) ms() float64 {
	if o.Failed {
		return inf
	}
	return ms(o.End.Sub(o.Due))
}

// do sends one request and fills in the op. keep retains the response
// body; otherwise it is only counted.
func (c *client) do(o *op, method, path string, body []byte, keep bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	o.ReqBytes = len(body)
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, rd)
	if err != nil {
		o.Failed = true
		return
	}
	o.Start = time.Now()
	if o.Due.IsZero() {
		o.Due = o.Start
	}
	resp, err := c.http.Do(req)
	if err != nil {
		o.End = time.Now()
		o.Failed = true
		return
	}
	if keep {
		o.RespBody, err = io.ReadAll(resp.Body)
		o.Resp = len(o.RespBody)
	} else {
		var n int64
		n, err = io.Copy(io.Discard, resp.Body)
		o.Resp = int(n)
	}
	resp.Body.Close()
	o.End = time.Now()
	o.Status = resp.StatusCode
	o.Failed = err != nil || resp.StatusCode != http.StatusOK
}

// getJSON fetches path and decodes it into out, off the clock.
func (c *client) getJSON(path string, out any) error {
	var o op
	c.do(&o, http.MethodGet, path, nil, true)
	if o.Failed {
		return fmt.Errorf("GET %s: status %d", path, o.Status)
	}
	return json.Unmarshal(o.RespBody, out)
}
