package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"staub/internal/server"
)

// record is one verdict request as its client saw it. It stays small:
// portfolio-hot keeps hundreds of thousands.
type record struct {
	item     *item
	lat      time.Duration
	done     time.Duration // completion, from the start of the phase
	failed   bool          // transport error, non-2xx answer or undecodable body
	decided  bool          // sat or unsat
	cacheHit bool
	detail   *detail // cold workloads only, for the per-row report
}

// detail is what the per-row report keeps of a response.
type detail struct {
	status, outcome string
	fromSTAUB       bool
	fromOver        bool
	tpostMS         float64
}

// phase is one closed-loop run over a request sequence.
type phase struct {
	recs []record // verdict requests, in sequence order
	// distinct holds each item's distinct verdicts: repeats of one
	// response (cache hits) are checked by the oracle once.
	distinct map[*item][]verdict
	ops      int
	opFails  []string
	elapsed  time.Duration
	// busy is how long every client had work: until the first one found
	// the sequence exhausted. Throughput is measured over it, so the drain
	// at the end, where one client finishes its last request alone, does
	// not count.
	busy time.Duration
}

// client is one closed-loop client: one goroutine on one keep-alive
// connection.
type client struct {
	hc       *http.Client
	base     string
	start    time.Time // of the phase, for completion times
	detail   bool      // keep each solve response's detail
	distinct map[*item][]verdict
	ops      int
	fails    []string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		},
		base:     base,
		distinct: map[*item][]verdict{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer. A transport error or
// an unexpected status code is a failed operation.
func (c *client) do(method, path, ctype string, body []byte, want int) ([]byte, time.Duration, error) {
	c.ops++
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, c.fail(fmt.Errorf("%s %s: %w", method, path, err))
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Since(t0), c.fail(fmt.Errorf("%s %s: %w", method, path, err))
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, c.fail(fmt.Errorf("%s %s: reading body: %w", method, path, err))
	}
	if resp.StatusCode != want {
		return nil, lat, c.fail(fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data)))
	}
	return data, lat, nil
}

func (c *client) fail(err error) error {
	c.fails = append(c.fails, err.Error())
	return err
}

// note keeps v in m if it is the first of its kind for it.
func note(m map[*item][]verdict, it *item, v verdict) {
	for _, seen := range m[it] {
		if seen.equal(v) {
			return
		}
	}
	m[it] = append(m[it], v)
}

func (c *client) solve(it *item, body []byte) record {
	data, lat, err := c.do(http.MethodPost, "/v1/solve", "application/json", body, http.StatusOK)
	rec := record{item: it, lat: lat, done: time.Since(c.start), failed: true}
	if err != nil {
		return rec
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		c.fail(fmt.Errorf("decoding solve response: %w", err))
		return rec
	}
	rec.failed, rec.decided, rec.cacheHit = false, isDecided(resp.Status), resp.CacheHit
	if c.detail {
		rec.detail = &detail{
			status: resp.Status, outcome: resp.Outcome,
			fromSTAUB: resp.FromSTAUB, fromOver: resp.FromOver, tpostMS: resp.Cost.PostMS,
		}
	}
	note(c.distinct, it, verdict{status: resp.Status, model: resp.Model})
	return rec
}

// sessionCreateBody opens a session with the shared request settings.
var sessionCreateBody = []byte(fmt.Sprintf(`{"timeout_ms":%d,"deterministic":true}`, timeoutMS))

var oneScope = []byte(`{"n":1}`)

// converse runs one conversation, writing its checks into recs (one slot
// per check, in order). A failed operation abandons the rest of the
// conversation; its unanswered checks stay failed.
func (c *client) converse(cv *conversation, recs []record) {
	k := 0
	for _, s := range cv.steps {
		if s.op == "check" {
			recs[k] = record{item: s.check, failed: true}
			k++
		}
	}
	data, _, err := c.do(http.MethodPost, "/v1/session", "application/json", sessionCreateBody, http.StatusCreated)
	if err != nil {
		return
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &created); err != nil || created.ID == "" {
		c.fail(fmt.Errorf("decoding session create response %q: %v", data, err))
		return
	}
	path := "/v1/session/" + created.ID
	defer c.do(http.MethodDelete, path, "", nil, http.StatusNoContent)
	k = 0
	for _, s := range cv.steps {
		var err error
		switch s.op {
		case "assert":
			_, _, err = c.do(http.MethodPost, path+"/assert", "text/plain", []byte(s.body), http.StatusOK)
		case "push", "pop":
			_, _, err = c.do(http.MethodPost, path+"/"+s.op, "application/json", oneScope, http.StatusOK)
		case "check":
			recs[k], err = c.check(path, s.check)
			k++
		}
		if err != nil {
			return
		}
	}
}

func (c *client) check(path string, it *item) (record, error) {
	data, lat, err := c.do(http.MethodPost, path+"/check", "", nil, http.StatusOK)
	rec := record{item: it, lat: lat, done: time.Since(c.start), failed: true}
	if err != nil {
		return rec, err
	}
	var resp server.SessionCheckResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return rec, c.fail(fmt.Errorf("decoding check response: %w", err))
	}
	rec.failed, rec.decided = false, isDecided(resp.Status)
	note(c.distinct, it, verdict{status: resp.Status, model: resp.Model})
	return rec, nil
}

func isDecided(st string) bool { return st == "sat" || st == "unsat" }

// runClosedLoop drives n jobs with the given number of clients, each
// taking the next job as soon as its previous one completes, and merges
// the clients' logs into p.
func runClosedLoop(base string, n, nClients int, detail bool, job func(c *client, i int), p *phase) {
	var next atomic.Int64
	var busy sync.Once
	cs := make([]*client, nClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := range cs {
		cs[k] = newClient(base)
		cs[k].detail, cs[k].start = detail, t0
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					busy.Do(func() { p.busy = time.Since(t0) })
					return
				}
				job(c, i)
			}
		}(cs[k])
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	if p.distinct == nil {
		p.distinct = map[*item][]verdict{}
	}
	for _, c := range cs {
		p.ops += c.ops
		p.opFails = append(p.opFails, c.fails...)
		for it, vs := range c.distinct {
			for _, v := range vs {
				note(p.distinct, it, v)
			}
		}
	}
}

// solvePhase replays seq against /v1/solve with nClients closed-loop
// clients.
func solvePhase(base string, w *workload, seq []*item, nClients int) *phase {
	bodies := map[*item][]byte{}
	for _, it := range seq {
		if bodies[it] == nil {
			bodies[it] = solveBody(w, it)
		}
	}
	p := &phase{recs: make([]record, len(seq))}
	runClosedLoop(base, len(seq), nClients, w.kind == kindCold, func(c *client, i int) {
		p.recs[i] = c.solve(seq[i], bodies[seq[i]])
	}, p)
	return p
}

// sessionPhase runs the conversations with nClients closed-loop clients,
// each client holding one conversation at a time.
func sessionPhase(base string, cvs []*conversation, nClients int) *phase {
	offsets := make([]int, len(cvs)+1)
	for i, cv := range cvs {
		offsets[i+1] = offsets[i] + cv.checks()
	}
	p := &phase{recs: make([]record, offsets[len(cvs)])}
	runClosedLoop(base, len(cvs), nClients, false, func(c *client, i int) {
		c.converse(cvs[i], p.recs[offsets[i]:offsets[i+1]])
	}, p)
	return p
}

// cacheCounters reads the solve cache's hit and miss counters from the
// server's /stats.
func cacheCounters(base string) (hits, misses float64, err error) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, 0, fmt.Errorf("decoding /stats: %w", err)
	}
	return out.Metrics["staub_cache_hits_total"], out.Metrics["staub_cache_misses_total"], nil
}

var discardLog = log.New(io.Discard, "", 0)

// startServer boots the real staub-serve handler in process behind a
// loopback HTTP listener, with production defaults and 2 workers.
func startServer() (*server.Server, *httptest.Server) {
	srv := server.New(server.Config{Workers: workers, Log: discardLog})
	return srv, httptest.NewServer(srv.Handler())
}

func stopServer(srv *server.Server, ts *httptest.Server) {
	ts.Close()
	srv.CloseSessions()
	srv.Close()
}
