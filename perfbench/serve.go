package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"swim/internal/experiments"
	"swim/internal/serialize"
	"swim/internal/serve"
)

// clients is the number of closed-loop clients: each submits a request,
// long-polls it to completion, fetches the result, then sends the next.
const clients = 2

// daemon is one in-process swim-serve daemon listening on loopback.
type daemon struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{url: "http://" + l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	s := serve.New(cfg)
	go func() { d.done <- s.Run(ctx, l) }()
	return d, nil
}

// stop drains the daemon and waits until it has shut down.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

// serveWorkload drives in-process daemons over loopback HTTP. Standalone
// (serve-mix) it is one daemon with the default configuration; sharded
// (serve-shard) it is a coordinator in front of two plain workers with one
// Monte-Carlo worker each.
type serveWorkload struct {
	shard   bool
	http    *http.Client
	front   *daemon   // the daemon clients talk to
	compute []*daemon // the daemons that run trials
}

func newServeWorkload(shard bool) workload {
	return &serveWorkload{shard: shard, http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
	}}
}

func (s *serveWorkload) name() string {
	if s.shard {
		return "serve-shard"
	}
	return "serve-mix"
}

// warmupRequest is the fixed request every run completes during set-up.
// Both serve workloads check its bytes against the same golden, so the
// coordinator's merged shards must equal the standalone answer.
func warmupRequest() *serialize.RequestRecord {
	return &serialize.RequestRecord{
		Version: serialize.RequestVersion, Kind: serialize.KindSweep, Workload: "lenet",
		Sigmas: []float64{experiments.SigmaHigh}, Policies: []string{"swim"},
		NWCs: []float64{0, 0.1}, Trials: 3, Seed: 1,
	}
}

// setup starts the daemons and completes the warm-up request, which also
// trains the LeNet workload on first use.
func (s *serveWorkload) setup(ctx context.Context, t *tally) error {
	if err := s.start(); err != nil {
		return err
	}
	t.attempt()
	req := warmupRequest()
	o, err := s.do(ctx, req)
	if err == nil {
		err = checkEnvelope(o.env, req)
	}
	if err != nil {
		t.fail("warm-up: %v", err)
		return nil
	}
	checkGolden(t, "serve/warmup", o.body)
	return nil
}

func (s *serveWorkload) start() error {
	if !s.shard {
		d, err := startDaemon(serve.Config{})
		if err != nil {
			return err
		}
		s.front, s.compute = d, []*daemon{d}
		return nil
	}
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(serve.Config{TotalWorkers: 1})
		if err != nil {
			s.close()
			return err
		}
		s.compute = append(s.compute, d)
		urls = append(urls, d.url)
	}
	d, err := startDaemon(serve.Config{WorkerURLs: urls})
	if err != nil {
		s.close()
		return err
	}
	s.front = d
	return nil
}

// close stops every daemon, the front one first.
func (s *serveWorkload) close() {
	if s.front != nil && s.shard {
		_ = s.front.stop() // a drain error only affects shutdown
	}
	for _, d := range s.compute {
		_ = d.stop()
	}
	s.front, s.compute = nil, nil
}

// outcome is one completed client request.
type outcome struct {
	key       string
	rec       *serialize.JobRecord // final job envelope
	body      []byte
	env       *serialize.ResultEnvelope
	latency   time.Duration // submit until the result bytes arrived
	submit    time.Duration // POST /v1/jobs
	fetch     time.Duration // GET result
	decode    time.Duration // serialize.DecodeEnvelope
	trials    int
	cached    bool // from the submit reply
	coalesced bool
}

// do runs one request through the daemon: submit, long-poll, fetch, decode.
func (s *serveWorkload) do(ctx context.Context, req *serialize.RequestRecord) (outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	payload, err := json.Marshal(req)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{key: string(payload), trials: req.Trials}
	t0 := time.Now()
	var rec serialize.JobRecord
	if err := s.call(ctx, http.MethodPost, "/v1/jobs", payload, &rec, nil); err != nil {
		return o, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	o.submit = t1.Sub(t0)
	o.cached, o.coalesced = rec.Cached, rec.Coalesced
	if rec.Status != serialize.JobDone {
		if err := s.call(ctx, http.MethodGet, "/v1/jobs/"+rec.ID+"?wait=1", nil, &rec, nil); err != nil {
			return o, fmt.Errorf("wait %s: %w", rec.ID, err)
		}
		if rec.Status != serialize.JobDone {
			return o, fmt.Errorf("job %s ended %s: %s", rec.ID, rec.Status, rec.Error)
		}
	}
	o.rec = &rec
	t2 := time.Now()
	if err := s.call(ctx, http.MethodGet, "/v1/jobs/"+rec.ID+"/result", nil, nil, &o.body); err != nil {
		return o, fmt.Errorf("result %s: %w", rec.ID, err)
	}
	t3 := time.Now()
	o.fetch, o.latency = t3.Sub(t2), t3.Sub(t0)
	o.env, err = serialize.DecodeEnvelope(bytes.NewReader(o.body))
	o.decode = time.Since(t3)
	if err != nil {
		return o, err
	}
	return o, nil
}

// call performs one HTTP exchange against the front daemon. A non-2xx
// status is an error; the body is decoded into v or copied into raw.
func (s *serveWorkload) call(ctx context.Context, method, path string, body []byte, v any, raw *[]byte) error {
	req, err := http.NewRequestWithContext(ctx, method, s.front.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if raw != nil {
		*raw = b
	}
	if v != nil {
		return json.Unmarshal(b, v)
	}
	return nil
}

// checkEnvelope validates a result envelope against its request: one cell
// (every generated request is a single sigma × policy × scenario × time
// cell) with one finite accuracy point per NWC target.
func checkEnvelope(env *serialize.ResultEnvelope, req *serialize.RequestRecord) error {
	if env == nil || len(env.Cells) != 1 {
		return fmt.Errorf("want 1 cell")
	}
	res := env.Cells[0].Result
	if res == nil || len(res.Points) != len(req.NWCs) {
		return fmt.Errorf("want %d points", len(req.NWCs))
	}
	for _, p := range res.Points {
		if p.Accuracy == nil || p.Accuracy.N != req.Trials || math.IsNaN(p.Accuracy.Mean) ||
			p.Accuracy.Mean < 0 || p.Accuracy.Mean > 100 {
			return fmt.Errorf("malformed accuracy point %+v", p.Accuracy)
		}
	}
	return nil
}

// slotKind classifies a generated request by what the stream intends.
type slotKind int

const (
	slotRepeat slotKind = iota // a key this client completed before: a cache hit
	slotFresh                  // a key no client has sent: a miss
	slotShared                 // a key both clients send in the same block: coalesces or hits
)

// stream generates one client's request sequence from the seed. serve-mix
// requests come in blocks of eight — four repeats, three fresh, one shared
// — shuffled per block, so every stretch of a run sees the same mix.
// Repeats pick from the client's own completed keys with a skew towards
// the oldest (a hot set), fresh requests rotate through plain, scenario,
// calibration and cost variants, and shared requests depend only on the
// seed and block index. serve-shard requests are all fresh.
type stream struct {
	seed    uint64
	shard   bool
	rnd     *rand.Rand
	history []*serialize.RequestRecord
	block   []slotKind
	blockN  int
	fresh   int
}

func newStream(seed uint64, client int, shard bool) *stream {
	return &stream{seed: seed, shard: shard, rnd: rand.New(rand.NewPCG(seed, uint64(client)+1))}
}

func (g *stream) next() (*serialize.RequestRecord, slotKind) {
	if g.shard {
		return g.freshRequest(g.rnd, 0), slotFresh
	}
	if len(g.block) == 0 {
		g.block = []slotKind{slotRepeat, slotRepeat, slotRepeat, slotRepeat, slotFresh, slotFresh, slotFresh, slotShared}
		g.rnd.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.blockN++
	}
	kind := g.block[0]
	g.block = g.block[1:]
	switch kind {
	case slotRepeat:
		if len(g.history) == 0 {
			return warmupRequest(), kind
		}
		u := g.rnd.Float64()
		return g.history[int(u*u*float64(len(g.history)))], kind
	case slotShared:
		r := rand.New(rand.NewPCG(g.seed, 1<<32+uint64(g.blockN)))
		return g.freshRequest(r, 0), kind
	}
	g.fresh++
	req := g.freshRequest(g.rnd, g.fresh%4)
	g.history = append(g.history, req)
	return req, kind
}

// freshRequest draws a new single-cell LeNet sweep from r. Variant 0 is a
// plain sweep; 1 adds a drift scenario read an hour after programming, 2 a
// gain/offset calibration and 3 the RRAM cost model. serve-shard requests
// carry three trials, one shard each.
func (g *stream) freshRequest(r *rand.Rand, variant int) *serialize.RequestRecord {
	sigmas := experiments.SigmaGrid()
	policies := []string{"swim", "magnitude", "random"}
	req := &serialize.RequestRecord{
		Version: serialize.RequestVersion, Kind: serialize.KindSweep, Workload: "lenet",
		Sigmas:   []float64{sigmas[r.IntN(len(sigmas))]},
		Policies: []string{policies[r.IntN(len(policies))]},
		NWCs:     []float64{0.1},
		Trials:   1,
		Seed:     r.Uint64N(1<<52) + 2, // never the warm-up's seed, never 0 (the default)
	}
	if g.shard {
		req.Trials = 3
	}
	switch variant {
	case 1:
		req.Scenarios, req.Times = "drift", []float64{3600}
	case 2:
		req.Calib = "gainoffset"
	case 3:
		req.Cost = "rram"
	}
	return req
}

// driveResult is what a closed-loop phase produced.
type driveResult struct {
	outcomes []outcome
	perCli   []int // requests each client completed
	wall     time.Duration
}

// drive runs the clients until d has elapsed or, when counts is non-nil,
// until client c has completed counts[c] requests. Every outcome is
// checked; failures are recorded in t.
func (s *serveWorkload) drive(ctx context.Context, d time.Duration, counts []int, seed uint64, t *tally) driveResult {
	var (
		mu    sync.Mutex
		res   = driveResult{perCli: make([]int, clients)}
		first = map[string]string{} // key → hash of the first result bytes seen
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := newStream(seed, c, s.shard)
			checkedFirst := false // the golden covers client 0's first fresh request
			for n := 0; ; n++ {
				if counts != nil && n >= counts[c] || counts == nil && !time.Now().Before(deadline) || ctx.Err() != nil {
					return
				}
				req, kind := g.next()
				t.attempt()
				o, err := s.do(ctx, req)
				if err == nil {
					err = checkEnvelope(o.env, req)
				}
				if err == nil && kind == slotRepeat && !o.cached {
					err = fmt.Errorf("repeat of a completed key was not served from the cache")
				}
				mu.Lock()
				if err == nil {
					h := sha(o.body)
					if prev, ok := first[o.key]; !ok {
						first[o.key] = h
					} else if prev != h {
						err = fmt.Errorf("result bytes differ from the first computation of the same key")
					}
				}
				if err == nil {
					res.outcomes = append(res.outcomes, o)
				}
				res.perCli[c]++
				mu.Unlock()
				if err != nil {
					t.fail("client %d request %d: %v", c, n, err)
				}
				if c == 0 && kind == slotFresh && !checkedFirst && seed == defaultSeed && err == nil {
					checkedFirst = true
					checkGolden(t, s.name()+"/seed1", o.body)
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// counters scrapes a daemon's Prometheus exposition into series → value.
func (s *serveWorkload) counters(ctx context.Context, d *daemon) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/metrics?format=prometheus", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: http %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrape holds counter snapshots of the front and compute daemons.
type scrape struct{ front, compute []map[string]float64 }

func (s *serveWorkload) scrape(ctx context.Context) (scrape, error) {
	var sc scrape
	ds := append([]*daemon{s.front}, s.compute...)
	for i, d := range ds {
		m, err := s.counters(ctx, d)
		if err != nil {
			return sc, err
		}
		if i == 0 {
			sc.front = append(sc.front, m)
		} else {
			sc.compute = append(sc.compute, m)
		}
	}
	return sc, nil
}

// delta returns after-before of one series: on the front daemon, or summed
// over the compute daemons.
func delta(before, after []map[string]float64, series string) float64 {
	sum := 0.0
	for i := range after {
		sum += after[i][series] - before[i][series]
	}
	return sum
}

// tallies are the client's own counts of one phase.
type tallies struct {
	hits, fresh, coalesced, trials int
	hitLat, missLat                []float64
}

func classify(outs []outcome) tallies {
	var tl tallies
	for _, o := range outs {
		ms := float64(o.latency.Nanoseconds()) / 1e6
		switch {
		case o.cached:
			tl.hits++
			tl.hitLat = append(tl.hitLat, ms)
		case o.coalesced:
			tl.coalesced++
			tl.missLat = append(tl.missLat, ms)
		default:
			tl.fresh++
			tl.trials += o.trials
			tl.missLat = append(tl.missLat, ms)
		}
	}
	return tl
}

// checkScrape requires the daemons' counter deltas to agree with the
// client's own tallies.
func (s *serveWorkload) checkScrape(before, after scrape, tl tallies, t *tally) {
	eq := func(what string, got float64, want int) {
		t.check(got == float64(want), "metrics: %s delta %v, client counted %d", what, got, want)
	}
	eq("swim_cache_hits_total", delta(before.front, after.front, "swim_cache_hits_total"), tl.hits)
	eq("swim_cache_misses_total", delta(before.front, after.front, "swim_cache_misses_total"), tl.fresh)
	eq("swim_mc_trials_total (compute daemons)", delta(before.compute, after.compute, "swim_mc_trials_total"), tl.trials)
	if s.shard {
		dispatched := delta(before.front, after.front, "swim_shards_dispatched_total")
		retries := delta(before.front, after.front, "swim_shard_retries_total")
		executed := delta(before.compute, after.compute, "swim_shards_executed_total")
		t.check(dispatched-retries == executed, "metrics: coordinator dispatched %v shards (%v retried), workers executed %v",
			dispatched, retries, executed)
	}
}

// phaseResult is one closed-loop phase: what the clients saw and the
// counter scrapes taken before and after it.
type phaseResult struct {
	driveResult
	tallies
	before, after scrape
}

// phase runs one closed-loop phase between two counter scrapes and checks
// the scrape against the client tallies.
func (s *serveWorkload) phase(ctx context.Context, d time.Duration, counts []int, seed uint64, t *tally) (phaseResult, error) {
	before, err := s.scrape(ctx)
	if err != nil {
		return phaseResult{}, err
	}
	res := s.drive(ctx, d, counts, seed, t)
	after, err := s.scrape(ctx)
	if err != nil {
		return phaseResult{}, err
	}
	p := phaseResult{driveResult: res, tallies: classify(res.outcomes), before: before, after: after}
	s.checkScrape(before, after, p.tallies, t)
	return p, nil
}

func (s *serveWorkload) measure(ctx context.Context, d time.Duration, seed uint64, t *tally) (metrics, error) {
	p, err := s.phase(ctx, d, nil, seed, t)
	if err != nil {
		return nil, err
	}
	wall := p.wall.Seconds()
	m := metrics{}
	m.set("jobs_per_s", float64(len(p.outcomes))/wall, "1/s")
	m.set("trials_per_s", float64(p.trials)/wall, "1/s")
	m.set("miss_p50_ms", quantile(p.missLat, 0.5), "ms")
	m.set("miss_p90_ms", quantile(p.missLat, 0.9), "ms")
	if p.hits > 0 {
		fmt.Fprintf(os.Stderr, "  hit_p50_ms %.4g ms, hit_p90_ms %.4g ms\n", quantile(p.hitLat, 0.5), quantile(p.hitLat, 0.9))
	}
	fmt.Fprintf(os.Stderr, "  samples: %d hits, %d misses (%d coalesced)\n", p.hits, len(p.missLat), p.coalesced)
	return m, nil
}

// trace replays the LeNet build through public calls (checked against the
// registry workload), runs one untraced phase for d, then restarts the
// daemons and replays exactly the same requests with per-request spans and
// counter scrapes.
func (s *serveWorkload) trace(ctx context.Context, d time.Duration, seed uint64, t *tally) (metrics, error) {
	tr := newTracer()
	t.attempt()
	if err := tr.replaySetup(lenetRecipe, experiments.LeNetMNIST()); err != nil {
		t.fail("parity: %v; no per-layer numbers reported", err)
		return metrics{}, nil
	}
	plain, err := s.phase(ctx, d, nil, seed, t)
	if err != nil {
		return nil, err
	}
	s.close()
	if err := s.setup(ctx, t); err != nil {
		return nil, err
	}
	p, err := s.phase(ctx, d, plain.perCli, seed, t)
	if err != nil {
		return nil, err
	}
	res, tl, before, after := p.driveResult, p.tallies, p.before, p.after

	m := metrics{}
	tr.setupMetrics(m)
	var submit, fetch, decode, size, queue, run []float64
	for _, o := range res.outcomes {
		submit = append(submit, float64(o.submit.Nanoseconds())/1e6)
		fetch = append(fetch, float64(o.fetch.Nanoseconds())/1e6)
		decode = append(decode, float64(o.decode.Nanoseconds())/1e6)
		size = append(size, float64(len(o.body)))
		if !o.cached && !o.coalesced {
			queue = append(queue, float64(o.rec.Started-o.rec.Submitted))
			run = append(run, float64(o.rec.Finished-o.rec.Started))
		}
	}
	m.set("serve.submit_p50_ms", quantile(submit, 0.5), "ms")
	m.set("serve.fetch_p50_ms", quantile(fetch, 0.5), "ms")
	m.set("serialize.decode_p50_ms", quantile(decode, 0.5), "ms")
	m.set("serialize.result_bytes", quantile(size, 0.5), "bytes")
	m.set("serve.queue_wait_p50_ms", quantile(queue, 0.5), "ms")
	m.set("serve.queue_wait_p90_ms", quantile(queue, 0.9), "ms")
	m.set("serve.run_p50_ms", quantile(run, 0.5), "ms")
	if tl.hits > 0 { // serve-shard sends no repeats
		m.set("serve.hit_p50_ms", quantile(tl.hitLat, 0.5), "ms")
		m.set("serve.hit_p90_ms", quantile(tl.hitLat, 0.9), "ms")
	}
	m.set("serve.hit_samples", float64(tl.hits), "count")
	m.set("serve.miss_samples", float64(len(tl.missLat)), "count")
	m.set("serve.hit_ratio", float64(tl.hits)/float64(len(res.outcomes)), "ratio")
	m.set("serve.coalesced", float64(tl.coalesced), "count")
	m.set("serve.jobs_executed", delta(before.front, after.front, "swim_jobs_executed_total"), "count")
	m.set("mc.worker_parks", delta(before.compute, after.compute, "swim_mc_worker_parks_total"), "count")
	dispatched := delta(before.front, after.front, "swim_shards_dispatched_total")
	m.set("serve.shards_dispatched", dispatched, "count")
	m.set("serve.shard_retries", delta(before.front, after.front, "swim_shard_retries_total"), "count")
	m.set("serve.shard_p50_ms", 1000*histQuantile(before.front[0], after.front[0], "swim_shard_latency_seconds", 0.5), "ms")
	if dispatched > 0 {
		m.set("serve.trials_per_shard", float64(tl.trials)/dispatched, "count")
	}
	m.set("trace.overhead", res.wall.Seconds()/plain.wall.Seconds(), "ratio")
	return m, nil
}

// histQuantile estimates the q-quantile of the observations a Prometheus
// histogram gained between two scrapes, interpolating linearly inside the
// bucket that holds it (as Prometheus' histogram_quantile does). It
// returns 0 when the histogram gained nothing.
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for series, v := range after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(series[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[series]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return lo
}
