package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/telemetry"
)

// queryHeader carries the benchmark's query ID to the traced handler.
const queryHeader = "X-Perfbench-Query"

// poolQuery is one distinct daemon query of the seeded pool.
type poolQuery struct {
	q    qntn.TrafficQuery
	body []byte
}

// buildPool draws the seeded query pool: each mix class contributes Share
// queries with their own traffic seed, and the pool order is shuffled. Class
// proportions and the diurnal profile are fixed, so seeds vary the inputs
// but not how much work they make.
func buildPool(cfg daemonConfig, seed int64) ([]poolQuery, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []poolQuery
	for _, k := range cfg.Mix {
		for range k.Share {
			q := qntn.TrafficQuery{
				Arch:               k.Arch,
				Satellites:         k.Satellites,
				RatePerHourPerSite: cfg.RatePerHour,
				DiurnalAmplitude:   cfg.DiurnalAmplitude,
				PeakHour:           cfg.PeakHour,
				Horizon:            k.Horizon,
				Seed:               rng.Int63n(1<<31) + 1,
				Workers:            1,
			}
			body, err := json.Marshal(q)
			if err != nil {
				return nil, err
			}
			pool = append(pool, poolQuery{q: q, body: body})
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("daemon-traffic: empty query mix")
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// reply is the client's view of one query.
type reply struct {
	pool      int
	status    int
	sum       [sha256.Size]byte
	bytes     int64
	steps     int
	evaluated int
	arrivals  int
	due       time.Time
	sent      time.Time
	first     time.Time
	done      time.Time
	err       error
}

// daemonBench is daemon-traffic: an in-process qntn.Daemon behind a
// loopback HTTP server, driven by an open-loop generator at the pinned
// rate; every 200 body must hash equal to an in-process instrumented
// RunTraffic of the same query.
type daemonBench struct {
	cfg    daemonConfig
	pool   []poolQuery
	d      *qntn.Daemon
	srv    *http.Server
	served chan struct{}
	url    string
	client *http.Client

	rec     *recorder
	tracing atomic.Bool
	spans   sync.Map // query ID → client span handle
	handled atomic.Int64

	want map[int][]byte // pool index → reference NDJSON
	// sent is how many untraced queries earlier windows sent, so that each
	// window continues through the pool where the last one stopped.
	sent   int64
	scenS  []float64
	cacheS []float64
}

func newDaemonBench(cfg *config, seed int64) (*daemonBench, error) {
	pool, err := buildPool(cfg.Daemon, seed)
	if err != nil {
		return nil, err
	}
	if cfg.Daemon.RatePerS <= 0 || cfg.Daemon.Connections < 1 {
		return nil, fmt.Errorf("daemon-traffic: rate and connections must be positive")
	}
	return &daemonBench{cfg: cfg.Daemon, pool: pool, want: make(map[int][]byte)}, nil
}

// setup starts a fresh daemon and sends the first query of each horizon,
// which builds that horizon's shared ephemeris cache.
func (b *daemonBench) setup() error {
	b.close()
	d, err := qntn.NewDaemon(qntn.DefaultParams(), time.Now)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.d = d
	b.srv = &http.Server{Handler: http.HandlerFunc(b.serve)}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		if err := b.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: daemon server:", err)
		}
	}()
	b.url = "http://" + ln.Addr().String() + "/v1/traffic"
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     b.cfg.Connections,
		MaxIdleConnsPerHost: b.cfg.Connections,
		DisableCompression:  true,
	}}
	warmed := make(map[string]bool)
	for i, pq := range b.pool {
		if pq.q.Arch != "space-ground" || warmed[pq.q.Horizon] {
			continue
		}
		warmed[pq.q.Horizon] = true
		rp := b.send(context.Background(), -1, i, time.Now())
		if rp.err != nil || rp.status != http.StatusOK {
			return fmt.Errorf("warm-up query %s: status %d: %v", pq.body, rp.status, rp.err)
		}
	}
	return nil
}

// close stops the server and waits for it to exit.
func (b *daemonBench) close() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
	<-b.served
	b.client.CloseIdleConnections()
	b.srv = nil
}

// serve is the server's handler: the daemon's own, timed from outside when
// tracing is on. The span before the handler's first write covers decoding,
// scenario preparation and RunTraffic; the span from the first write to the
// handler's return covers the NDJSON encoding.
func (b *daemonBench) serve(w http.ResponseWriter, r *http.Request) {
	if !b.tracing.Load() {
		b.d.Handler().ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseInt(r.Header.Get(queryHeader), 10, 64)
	fw := &firstWriter{ResponseWriter: w}
	start := time.Now()
	b.d.Handler().ServeHTTP(fw, r)
	end := time.Now()
	if fw.first.IsZero() {
		fw.first = end
	}
	parent := int32(noParent)
	if h, ok := b.spans.Load(id); ok {
		parent = h.(int32)
	}
	hs := b.rec.add("handler", start, end, parent, id)
	b.rec.add("traffic", start, fw.first, hs, id)
	b.rec.add("ndjson", fw.first, end, hs, id)
	b.handled.Add(1)
}

// firstWriter notes when the handler first writes its body.
type firstWriter struct {
	http.ResponseWriter
	first time.Time
}

func (f *firstWriter) Write(p []byte) (int, error) {
	if f.first.IsZero() {
		f.first = time.Now()
	}
	return f.ResponseWriter.Write(p)
}

// send posts pool query i as query id, due at due, and drains the reply.
func (b *daemonBench) send(ctx context.Context, id int64, i int, due time.Time) reply {
	rp := reply{pool: i, due: due, sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url, bytes.NewReader(b.pool[i].body))
	if err != nil {
		rp.err = err
		return rp
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(queryHeader, strconv.FormatInt(id, 10))
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { rp.first = time.Now() },
	}))
	resp, err := b.client.Do(req)
	if err != nil {
		rp.err = err
		rp.done = time.Now()
		return rp
	}
	h := sha256.New()
	rp.bytes, rp.err = io.Copy(h, resp.Body)
	resp.Body.Close()
	rp.done = time.Now()
	copy(rp.sum[:], h.Sum(nil))
	rp.status = resp.StatusCode
	rp.steps, _ = strconv.Atoi(resp.Header.Get("X-Qntn-Steps"))
	rp.evaluated, _ = strconv.Atoi(resp.Header.Get("X-Qntn-Requests-Evaluated"))
	rp.arrivals, _ = strconv.Atoi(resp.Header.Get("X-Qntn-Arrivals"))
	if rp.first.IsZero() {
		rp.first = rp.done
	}
	return rp
}

// openLoop sends query firstID, firstID+1, ... at the pinned rate from
// start until end over the pinned number of connections. A query is due at
// its slot whatever happened to earlier ones; a connection that is free
// sleeps until the slot, and its wake-up lag is appended to late (ms).
// When rec is set, each query gets a root span from its due time and a
// client span around the round trip.
func (b *daemonBench) openLoop(start, end time.Time, firstID int64, rec *recorder, late *[]float64) []reply {
	interval := time.Duration(float64(time.Second) / b.cfg.RatePerS)
	var (
		next    atomic.Int64
		mu      sync.Mutex
		replies []reply
		wg      sync.WaitGroup
	)
	for range b.cfg.Connections {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				due := start.Add(time.Duration(k) * interval)
				if !due.Before(end) {
					return
				}
				var lag float64
				slept := false
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					lag, slept = ms(time.Since(due)), true
				}
				id := firstID + k
				qh := rec.add("query", due, due, noParent, id)
				ch := rec.begin("http", qh, id)
				if rec != nil {
					b.spans.Store(id, ch)
				}
				rp := b.send(context.Background(), id, int(id%int64(len(b.pool))), due)
				rec.end(ch)
				rec.end(qh)
				mu.Lock()
				replies = append(replies, rp)
				if slept {
					*late = append(*late, lag)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return replies
}

// check verifies one reply against the in-process reference and counts it.
func (b *daemonBench) check(rp reply, r *result) bool {
	r.attempted++
	switch {
	case rp.err != nil:
		r.fail("daemon query %s: %v", b.pool[rp.pool].body, rp.err)
		return false
	case rp.status != http.StatusOK:
		r.fail("daemon query %s: status %d", b.pool[rp.pool].body, rp.status)
		return false
	}
	want, err := b.reference(rp.pool)
	if err != nil {
		r.fail("daemon reference %s: %v", b.pool[rp.pool].body, err)
		return false
	}
	if rp.sum != sha256.Sum256(want) {
		r.fail("daemon query %s: NDJSON body differs from the in-process run", b.pool[rp.pool].body)
		return false
	}
	return true
}

// reference returns the NDJSON of an in-process instrumented RunTraffic of
// pool query i, which the daemon's body must match byte for byte.
func (b *daemonBench) reference(i int) ([]byte, error) {
	if body, ok := b.want[i]; ok {
		return body, nil
	}
	body, err := referenceRun(b.pool[i].q)
	if err != nil {
		return nil, err
	}
	b.want[i] = body
	return body, nil
}

// referenceRun builds the query's scenario from scratch and returns its
// NDJSON event stream.
func referenceRun(q qntn.TrafficQuery) ([]byte, error) {
	p := qntn.DefaultParams()
	var sc *qntn.Scenario
	var err error
	switch q.Arch {
	case "space-ground":
		sc, err = qntn.NewSpaceGround(q.Satellites, p)
	case "air-ground":
		sc, err = qntn.NewAirGround(p)
	case "hybrid":
		sc, err = qntn.NewHybrid(q.Satellites, p)
	default:
		err = fmt.Errorf("unknown architecture %q", q.Arch)
	}
	if err != nil {
		return nil, err
	}
	h, err := time.ParseDuration(q.Horizon)
	if err != nil {
		return nil, err
	}
	col := telemetry.NewCollector()
	sc.Instrument(col)
	_, err = sc.RunTraffic(qntn.TrafficConfig{
		RatePerHourPerSite: q.RatePerHourPerSite,
		Diurnal:            qntn.DiurnalProfile{Amplitude: q.DiurnalAmplitude, PeakHour: q.PeakHour},
		Horizon:            h,
		Seed:               q.Seed,
		Workers:            q.Workers,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := col.Events.WriteNDJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (b *daemonBench) measure(deadline time.Time, r *result) {
	var late []float64
	a0 := allocated()
	replies := b.openLoop(time.Now(), deadline, b.sent, nil, &late)
	r.allocBytes += allocated() - a0
	b.sent += int64(len(replies))
	for _, rp := range replies {
		if b.check(rp, r) {
			r.ops = append(r.ops, opSample{
				latency: rp.done.Sub(rp.due), ttfb: rp.first.Sub(rp.due), busy: rp.done.Sub(rp.sent),
				steps: rp.steps, requests: rp.evaluated,
			})
		}
	}
}

// traced runs the open loop untraced for the first half of the window and
// traced for the second, then derives the layer self times from the spans
// and the layer counts from the reply headers and NDJSON events.
func (b *daemonBench) traced(deadline time.Time, r *result, rec *recorder) {
	b.setupLayers(r)
	mid := time.Now().Add(time.Until(deadline) / 2)
	var late []float64
	plain := b.openLoop(time.Now(), mid, 0, nil, &late)
	b.rec = rec
	b.tracing.Store(true)
	start := time.Now()
	tracedReplies := b.openLoop(start, deadline, 1<<32, rec, &late)
	for wait := time.Now(); b.handled.Load() < int64(len(tracedReplies)) && time.Since(wait) < 5*time.Second; {
		time.Sleep(time.Millisecond)
	}
	b.tracing.Store(false)

	var plainBusy, tracedBusy, sizes []float64
	for _, rp := range plain {
		if b.check(rp, r) {
			plainBusy = append(plainBusy, rp.done.Sub(rp.sent).Seconds())
		}
	}
	var evaluated, arrivals int
	bodies := make(map[int]bool)
	for _, rp := range tracedReplies {
		if !b.check(rp, r) {
			continue
		}
		tracedBusy = append(tracedBusy, rp.done.Sub(rp.sent).Seconds())
		sizes = append(sizes, float64(rp.bytes))
		evaluated += rp.evaluated
		arrivals += rp.arrivals
		bodies[rp.pool] = true
	}
	passes := rec.passes()
	setBusy(r, passes, map[string]string{
		"http": "http.busy_s", "handler": "http.busy_s", "traffic": "traffic.busy_s", "ndjson": "ndjson.busy_s",
	})
	var unattributed []float64
	for _, p := range passes {
		unattributed = append(unattributed, p.unattributed())
	}
	r.setLayer("trace.unattributed_frac", unattributed...)
	if len(plainBusy) > 0 && len(tracedBusy) > 0 {
		r.setLayer("trace.overhead_frac", median(tracedBusy)/median(plainBusy)-1)
	}
	r.setLayer("ndjson.bytes", sizes...)
	if arrivals > 0 {
		r.setLayer("traffic.evals_per_arrival", float64(evaluated)/float64(arrivals))
	}
	if len(late) > 0 {
		r.setLayer("loadgen.late_ms", percentile(late, 0.99))
	}
	b.eventCounts(bodies, r)
}

// eventCounts derives the topology and queue counts of the daemon workload
// from the NDJSON events of the distinct queries it served.
func (b *daemonBench) eventCounts(pool map[int]bool, r *result) {
	idx := make([]int, 0, len(pool))
	for i := range pool {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var st topoStats
	var depth []float64
	for _, i := range idx {
		body, err := b.reference(i)
		if err != nil {
			r.attempted++
			r.fail("daemon reference %s: %v", b.pool[i].body, err)
			continue
		}
		events, err := telemetry.ReadNDJSON(bytes.NewReader(body))
		if err != nil {
			r.attempted++
			r.fail("daemon events %s: %v", b.pool[i].body, err)
			continue
		}
		maxDepth := int64(0)
		for _, e := range events {
			st.steps++
			st.pairs += e.PairsEvaluated
			st.visited += e.PairsEvaluated - e.IndexCulled
			st.admitted += e.LinksAdmitted
			st.edges += e.LinksAdmitted
			st.horizon += e.HorizonRejects
			st.rangeRej += e.RangeRejects
			maxDepth = max(maxDepth, e.QueueDepth)
		}
		depth = append(depth, float64(maxDepth))
	}
	setTopoCounts(r, &st, 0)
	r.setLayer("traffic.max_queue_depth", depth...)
}

// setupLayers times the daemon's set-up calls from outside: building the
// shared ephemeris cache of every space-ground horizon in the mix, and the
// scenario constructors a query runs.
func (b *daemonBench) setupLayers(r *result) {
	p := qntn.DefaultParams()
	horizons := make(map[string]bool)
	for _, k := range b.cfg.Mix {
		if k.Arch == "space-ground" {
			horizons[k.Horizon] = true
		}
	}
	var cacheS, scenS []float64
	for range 3 {
		var cache *qntn.EphemerisCache
		t0 := time.Now()
		for h := range horizons {
			d, err := time.ParseDuration(h)
			if err != nil {
				r.attempted++
				r.fail("daemon horizon %q: %v", h, err)
				return
			}
			var times []time.Duration
			for t := time.Duration(0); t <= d; t += p.TopologyStep() {
				times = append(times, t)
			}
			if cache, err = qntn.NewEphemerisCache(orbit.MaxPaperSatellites, p, times); err != nil {
				r.attempted++
				r.fail("daemon ephemeris cache: %v", err)
				return
			}
		}
		cacheS = append(cacheS, time.Since(t0).Seconds())
		t0 = time.Now()
		_, err1 := cache.Scenario(orbit.MaxPaperSatellites)
		_, err2 := qntn.NewAirGround(p)
		_, err3 := qntn.NewHybrid(12, p)
		scenS = append(scenS, time.Since(t0).Seconds())
		if err := errors.Join(err1, err2, err3); err != nil {
			r.attempted++
			r.fail("daemon scenarios: %v", err)
			return
		}
	}
	r.setLayer("setup.ephemeris_cache_s", cacheS...)
	r.setLayer("setup.scenario_s", scenS...)
}

// capacityMain measures the daemon's closed-loop capacity on one
// connection over the seed-1 query pool, the figure the pinned open-loop
// rate is set from (about half of it).
func capacityMain(args []string) int {
	seconds := 10.0
	if len(args) > 0 {
		if v, err := strconv.ParseFloat(args[0], 64); err == nil && v > 0 {
			seconds = v
		}
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(cfg.GOMAXPROCS)
	b, err := newDaemonBench(cfg, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer b.close()
	n := 0
	t0 := time.Now()
	for time.Since(t0).Seconds() < seconds {
		if rp := b.send(context.Background(), int64(n), n%len(b.pool), time.Now()); rp.err != nil || rp.status != http.StatusOK {
			fmt.Fprintf(os.Stderr, "perfbench: capacity query failed: status %d: %v\n", rp.status, rp.err)
			return 1
		}
		n++
	}
	qps := float64(n) / time.Since(t0).Seconds()
	fmt.Printf("closed-loop single-connection capacity: %.2f queries/s over %d queries; half: %.2f\n", qps, n, qps/2)
	return 0
}
