package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"tangled/internal/jobs"
	"tangled/internal/server"
)

// spanHeader carries the client's span ID to a traced handler.
const spanHeader = "X-Bench-Span"

// client is the benchmark's sender side: keep-alive connections capped at
// maxConns, the JSON codec of the API types, and retries of 429s.
type client struct {
	base   string
	hc     *http.Client
	tr     *tracer
	conns  *connCounter
	events *eventWaiter // jobs fleets only
}

// connCounter tracks how many connections are open at once.
type connCounter struct {
	mu         sync.Mutex
	open, peak int
	dials      int
}

func (cc *connCounter) opened() {
	cc.mu.Lock()
	cc.open++
	cc.dials++
	if cc.open > cc.peak {
		cc.peak = cc.open
	}
	cc.mu.Unlock()
}

func (cc *connCounter) closed() {
	cc.mu.Lock()
	cc.open--
	cc.mu.Unlock()
}

func (cc *connCounter) stats() (peak, dials int) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.peak, cc.dials
}

type countedConn struct {
	net.Conn
	once sync.Once
	cc   *connCounter
}

func (c *countedConn) Close() error {
	c.once.Do(c.cc.closed)
	return c.Conn.Close()
}

func newClient(base string, maxConns int, tr *tracer) *client {
	cc := &connCounter{}
	var d net.Dialer
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			cc.opened()
			return &countedConn{Conn: conn, cc: cc}, nil
		},
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: transport}, tr: tr, conns: cc}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// opRecord is what one op saw.
type opRecord struct {
	index      int
	due, start time.Time // due == start in an unpaced closed loop
	end        time.Time
	err        string
	retries    int
	rejected   int
	programs   int
	results    []server.RunResult // one per program, in input order
	job        *server.JobStatus  // jobs: the terminal status, fetched after the event
	submit     time.Duration      // jobs: the POST round trip
	walBytes   int64              // jobs, traced: WAL growth over this job
	checkFails int
}

func (r *opRecord) ok() bool { return r.err == "" && r.checkFails == 0 }

// latency runs from the send. A paced sender can send later than its due
// time; that lateness is reported on its own.
func (r *opRecord) latency() time.Duration { return r.end.Sub(r.start) }

const maxAttempts = 8

// post sends body to path, retrying 429s as Retry-After asks (capped at a
// second), and returns the final status and body.
func (c *client) post(ctx context.Context, path string, body []byte, rec *opRecord, parent int32, req string) (int, []byte, error) {
	for attempt := 1; ; attempt++ {
		id, start := c.tr.begin()
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		if c.tr != nil {
			hreq.Header.Set(spanHeader, strconv.Itoa(int(id)))
		}
		resp, err := c.hc.Do(hreq)
		if err != nil {
			return 0, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		c.tr.end(id, parent, "client.http", req, path, start)
		if err != nil {
			return 0, nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt == maxAttempts {
			return resp.StatusCode, data, nil
		}
		rec.rejected++
		rec.retries++
		wait := 10 * time.Millisecond
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			wait = time.Duration(s) * time.Second
		}
		if wait > time.Second {
			wait = time.Second
		}
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-time.After(wait):
		}
	}
}

func (c *client) getJSON(ctx context.Context, path string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// do runs op o and fills rec. The op's latency ends when its result is
// decoded or, for a job, when its terminal event arrives.
func (c *client) do(ctx context.Context, o *op, rec *opRecord) {
	root, rootStart := c.tr.begin()
	defer func() { c.tr.end(root, 0, "client.op", o.id, "", rootStart) }()
	var err error
	switch o.kind {
	case opRun:
		err = c.doRun(ctx, o, rec, root)
	case opBatch:
		err = c.doBatch(ctx, o, rec, root)
	case opJob:
		err = c.doJob(ctx, o, rec, root)
	}
	if rec.end.IsZero() {
		rec.end = time.Now()
	}
	if err != nil {
		rec.err = err.Error()
	}
}

func (c *client) encode(v interface{}, root int32, req string) ([]byte, error) {
	id, start := c.tr.begin()
	b, err := json.Marshal(v)
	c.tr.end(id, root, "client.encode", req, "", start)
	return b, err
}

func (c *client) doRun(ctx context.Context, o *op, rec *opRecord, root int32) error {
	req := o.progs[0].req
	req.ID = o.id
	body, err := c.encode(&req, root, o.id)
	if err != nil {
		return err
	}
	status, data, err := c.post(ctx, "/v1/run", body, rec, root, o.id)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/run: status %d: %s", status, bytes.TrimSpace(data))
	}
	id, start := c.tr.begin()
	var res server.RunResult
	err = json.Unmarshal(data, &res)
	c.tr.end(id, root, "client.decode", o.id, "", start)
	rec.end = time.Now()
	rec.results = []server.RunResult{res}
	return err
}

func (c *client) doBatch(ctx context.Context, o *op, rec *opRecord, root int32) error {
	breq := server.BatchRequest{ID: o.id, Programs: make([]server.RunRequest, len(o.progs))}
	for j := range o.progs {
		breq.Programs[j] = o.progs[j].req
	}
	body, err := c.encode(&breq, root, o.id)
	if err != nil {
		return err
	}
	status, data, err := c.post(ctx, "/v1/batch", body, rec, root, o.id)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/batch: status %d: %s", status, bytes.TrimSpace(data))
	}
	id, start := c.tr.begin()
	dec := json.NewDecoder(bytes.NewReader(data))
	var hdr server.ResultsHeader
	err = dec.Decode(&hdr)
	results := make([]server.RunResult, 0, len(o.progs))
	for err == nil && len(results) < hdr.Count {
		var r server.RunResult
		if err = dec.Decode(&r); err == nil {
			results = append(results, r)
		}
	}
	c.tr.end(id, root, "client.decode", o.id, "", start)
	rec.end = time.Now()
	if err != nil {
		return fmt.Errorf("/v1/batch: decode: %w", err)
	}
	if hdr.Schema != server.ResultsSchema || len(results) != len(o.progs) {
		return fmt.Errorf("/v1/batch: header %+v with %d results for %d programs", hdr, len(results), len(o.progs))
	}
	sort.Slice(results, func(a, b int) bool { return results[a].Index < results[b].Index })
	rec.results = results
	return nil
}

// jobEventTimeout bounds the wait for a job's terminal event before the
// client falls back to polling its status.
const jobEventTimeout = 5 * time.Second

func (c *client) doJob(ctx context.Context, o *op, rec *opRecord, root int32) error {
	jreq := server.JobRequest{RunRequest: o.progs[0].req}
	jreq.ID = o.id
	done := c.events.expect(o.id)
	defer c.events.forget(o.id)
	body, err := c.encode(&jreq, root, o.id)
	if err != nil {
		return err
	}
	submitStart := time.Now()
	status, data, err := c.post(ctx, "/v1/jobs", body, rec, root, o.id)
	rec.submit = time.Since(submitStart)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("/v1/jobs: status %d: %s", status, bytes.TrimSpace(data))
	}
	wid, wstart := c.tr.begin()
	var terminal jobs.State
	select {
	case ev := <-done:
		rec.end = ev.at
		terminal = ev.State
	case <-time.After(jobEventTimeout):
	case <-ctx.Done():
		return ctx.Err()
	}
	c.tr.end(wid, root, "client.wait", o.id, "", wstart)
	// The result itself is fetched outside the op's latency, so the check
	// has it even after the store's retention evicts the job.
	var st server.JobStatus
	fid, fstart := c.tr.begin()
	err = c.getJSON(ctx, "/v1/jobs/"+o.id, &st)
	c.tr.end(fid, root, "client.fetch", o.id, "", fstart)
	if err != nil {
		return err
	}
	if terminal == "" {
		rec.end = time.Now()
		return fmt.Errorf("job %s: no terminal event within %v (state %s)", o.id, jobEventTimeout, st.State)
	}
	rec.job = &st
	return nil
}

// eventWaiter reads one GET /v1/events stream and hands each job's terminal
// event to the op waiting for it.
type eventWaiter struct {
	mu      sync.Mutex
	waiting map[string]chan timedEvent
	wg      sync.WaitGroup
	cancel  context.CancelFunc
}

type timedEvent struct {
	jobs.Event
	at time.Time
}

func (w *eventWaiter) expect(id string) chan timedEvent {
	ch := make(chan timedEvent, 1)
	w.mu.Lock()
	w.waiting[id] = ch
	w.mu.Unlock()
	return ch
}

func (w *eventWaiter) forget(id string) {
	w.mu.Lock()
	delete(w.waiting, id)
	w.mu.Unlock()
}

// watch opens the event stream and returns once its header arrived; a
// goroutine then dispatches events until stop.
func (c *client) watch(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/events", nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return err
	}
	br := bufio.NewReader(resp.Body)
	dec := json.NewDecoder(br)
	var hdr server.EventsHeader
	if err := dec.Decode(&hdr); err != nil || resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("/v1/events: status %d: %v", resp.StatusCode, err)
	}
	w := &eventWaiter{waiting: map[string]chan timedEvent{}, cancel: cancel}
	c.events = w
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer resp.Body.Close()
		for {
			var ev jobs.Event
			if err := dec.Decode(&ev); err != nil {
				return
			}
			if !ev.State.Terminal() {
				continue
			}
			at := time.Now()
			w.mu.Lock()
			ch := w.waiting[ev.Job]
			w.mu.Unlock()
			if ch != nil {
				select {
				case ch <- timedEvent{Event: ev, at: at}:
				default:
				}
			}
		}
	}()
	return nil
}

// stopWatch ends the event stream and waits for its reader.
func (c *client) stopWatch() {
	if c.events == nil {
		return
	}
	c.events.cancel()
	c.events.wg.Wait()
}
