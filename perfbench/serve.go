package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"regiongrow"
	"regiongrow/client"
	"regiongrow/internal/prand"
	"regiongrow/internal/regstats"
)

// serveWorkers and serveClients match the 2 CPUs the benchmark is sized
// for: no workload uses more callers, connections or workers than that.
const (
	serveWorkers = 2
	serveClients = 2
)

// serveSizes are the upload sides serve-mix alternates between.
var serveSizes = []int{256, 512}

// recentKeys is how many of a client's latest misses a hit may repeat;
// far below the daemon's 256-entry cache, so a repeat always hits.
const recentKeys = 8

// imgKey identifies one generated upload.
type imgKey struct {
	c    class
	n    int
	seed uint64
}

func (k imgKey) pgm() ([]byte, *regiongrow.Image, error) {
	im := generate(k.c, k.n, k.seed)
	var b bytes.Buffer
	if err := regiongrow.WritePGM(&b, im); err != nil {
		return nil, nil, err
	}
	return b.Bytes(), im, nil
}

// served is one response as the client saw it.
type served struct {
	key     imgKey
	lat     time.Duration
	cache   string
	regions int
	digest  [32]byte
	span    int // root span, traced runs only
}

// daemon is a spawned regiongrowd or regiongrow-gateway.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts a daemon binary on a free loopback port and waits until
// its /healthz answers 200.
func spawn(ctx context.Context, e *env, name string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, name), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	// A benchmark that dies must not leave the daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s did not answer /healthz within 20s", name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// cacheStats reads the daemon's cache counters from /v1/stats.
func (d *daemon) cacheStats(ctx context.Context) (cacheCounts, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/stats", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return cacheCounts{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return cacheCounts{}, err
	}
	return parseStats(b)
}

// serveQuery is the request configuration: the daemon's defaults with a
// seeded random tie draw.
func serveQuery(seed uint64) string {
	return fmt.Sprintf("/v1/segment?threshold=10&tie=random&seed=%d", seed)
}

// post sends one upload and reads the whole response. The latency covers
// send to last body byte; decoding the JSON comes after.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (served, error) {
	var s served
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	req.Header.Set("Content-Type", "image/x-portable-graymap")
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return s, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(t0)
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("POST %s: %s: %.200s", url, resp.Status, b)
	}
	var doc struct {
		Cache  string `json:"cache"`
		Result struct {
			FinalRegions int             `json:"final_regions"`
			Regions      json.RawMessage `json:"regions"`
		} `json:"result"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return s, fmt.Errorf("decoding response: %w", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc.Result.Regions); err != nil {
		return s, err
	}
	s.cache, s.regions, s.digest = doc.Cache, doc.Result.FinalRegions, sha256.Sum256(compact.Bytes())
	return s, nil
}

// expected is the in-process reference of one upload.
type expected struct {
	regions int
	digest  [32]byte
	err     error
}

// reference segments an upload in process and digests its region stats
// the way the response carries them.
func reference(ctx context.Context, seq *regiongrow.Segmenter, k imgKey, cfg regiongrow.Config) expected {
	_, im, err := k.pgm()
	if err != nil {
		return expected{err: err}
	}
	seg, err := seq.Segment(ctx, im, cfg)
	if err != nil {
		return expected{err: err}
	}
	b, err := json.Marshal(regiongrow.ComputeRegionStats(seg, im))
	if err != nil {
		return expected{err: err}
	}
	return expected{regions: seg.FinalRegions, digest: sha256.Sum256(b)}
}

// serveMix drives the daemon: each client alternates misses (a fresh
// upload) and hits (a repeat of one of its recent uploads) at random, half
// and half.
type serveMix struct {
	e       *env
	d       *daemon
	cfg     regiongrow.Config
	clients []*serveClient
	mu      sync.Mutex
	log     []served
}

// serveClient is one caller's state; only that caller's goroutine uses it.
type serveClient struct {
	hc     *http.Client
	rng    *prand.Gen // hit or miss, and which repeat
	seed   uint64     // the i-th fresh upload has seed seed+i·serveClients
	fresh  uint64     // fresh uploads so far
	recent []imgKey   // latest fresh uploads, oldest first
	body   map[imgKey][]byte
}

func newServeMix(e *env, cfg regiongrow.Config) *serveMix {
	s := &serveMix{e: e, cfg: cfg}
	for c := 0; c < serveClients; c++ {
		s.clients = append(s.clients, &serveClient{
			hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
			rng:  prand.New(e.derive(20 + uint64(c))),
			seed: e.derive(30) + uint64(c),
			body: make(map[imgKey][]byte),
		})
	}
	return s
}

// next picks the client's next upload: with probability ½ a repeat of a
// recent one, otherwise a fresh one.
func (sc *serveClient) next() (imgKey, []byte, error) {
	if len(sc.recent) > 0 && sc.rng.Intn(2) == 0 {
		k := sc.recent[sc.rng.Intn(len(sc.recent))]
		return k, sc.body[k], nil
	}
	i := sc.fresh
	sc.fresh++
	k := imgKey{c: class(i % 2), n: serveSizes[(i/2)%2], seed: sc.seed + i*serveClients}
	b, _, err := k.pgm()
	if err != nil {
		return k, nil, err
	}
	if len(sc.recent) == recentKeys {
		delete(sc.body, sc.recent[0])
		sc.recent = sc.recent[1:]
	}
	sc.recent = append(sc.recent, k)
	sc.body[k] = b
	return k, b, nil
}

// op is one closed-loop request of client c.
func (s *serveMix) op(ctx context.Context, traced bool) func(c, i int) (time.Duration, error) {
	url := s.d.base + serveQuery(s.cfg.Seed)
	return func(c, _ int) (time.Duration, error) {
		k, b, err := s.clients[c].next()
		if err != nil {
			return 0, s.e.r.opErr(err)
		}
		span, op := -1, 0
		if traced {
			op = s.e.tr.op()
			span = s.e.tr.begin(op, -1, "serve.request")
		}
		r, err := post(ctx, s.clients[c].hc, url, b)
		if traced {
			s.e.tr.end(span)
		}
		if err != nil {
			return r.lat, s.e.r.opErr(err)
		}
		r.key, r.span = k, span
		s.mu.Lock()
		s.log = append(s.log, r)
		s.mu.Unlock()
		return r.lat, nil
	}
}

// verify compares every logged response with its in-process reference,
// computed once per distinct upload on serveClients goroutines, and
// returns the latencies of the right ones and the number of wrong ones.
func verify(ctx context.Context, e *env, log []served, cfg regiongrow.Config) ([]float64, int, error) {
	want := make(map[imgKey]expected)
	var keys []imgKey
	for _, r := range log {
		if _, ok := want[r.key]; !ok {
			want[r.key] = expected{}
			keys = append(keys, r.key)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq, err := regiongrow.New(regiongrow.SequentialEngine)
			for i := w; i < len(keys); i += serveClients {
				x := expected{err: err}
				if err == nil {
					x = reference(ctx, seq, keys[i], cfg)
				}
				mu.Lock()
				want[keys[i]] = x
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var lat []float64
	wrong := 0
	for _, r := range log {
		x := want[r.key]
		if x.err != nil {
			return nil, 0, x.err
		}
		if r.regions != x.regions || r.digest != x.digest {
			wrong++
			_ = e.r.opErr(fmt.Errorf("serve %v-%d/seed%d: response differs from the in-process reference", r.key.c, r.key.n, r.key.seed))
			continue
		}
		lat = append(lat, float64(r.lat)/float64(time.Millisecond))
	}
	return lat, wrong, nil
}

// measure runs the closed loop for d and folds verification into it.
// With mem, the daemon's VmHWM is sampled in one-second windows.
func (s *serveMix) measure(ctx context.Context, d time.Duration, traced bool, mem *peaks) (loop, []served, error) {
	stop, done := make(chan struct{}), make(chan struct{})
	if mem != nil {
		go mem.every(time.Second, stop, done)
	}
	l := closedLoop(serveClients, d, 1, nil, s.op(ctx, traced))
	if mem != nil {
		close(stop)
		<-done
	}
	s.mu.Lock()
	log := s.log
	s.log = nil
	s.mu.Unlock()
	lat, wrong, err := verify(ctx, s.e, log, s.cfg)
	if err != nil {
		return l, nil, err
	}
	l.lat, l.failed = lat, l.failed+wrong
	return l, log, nil
}

func (s *serveMix) start(ctx context.Context) (*daemon, error) {
	d, err := spawn(ctx, s.e, "regiongrowd", "-workers", fmt.Sprint(serveWorkers), "-instance", "bench")
	if err != nil {
		return nil, err
	}
	// The warm-up upload is the same in every run, so set-up time does not
	// depend on the seed.
	b, _, err := imgKey{c: blobs, n: serveSizes[1], seed: 0}.pgm()
	if err == nil {
		_, err = post(ctx, s.clients[0].hc, d.base+serveQuery(s.cfg.Seed), b)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func runServe(ctx context.Context, e *env, m mode) error {
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: e.derive(5)}
	s := newServeMix(e, cfg)
	setups, d, err := timeSetups(m, setupRuns, func() (*daemon, error) { return s.start(ctx) }, (*daemon).stop)
	if err != nil {
		return err
	}
	defer d.stop()
	s.d = d

	switch m {
	case timed:
		mem := newPeaks(d.cmd.Process.Pid)
		l, _, err := s.measure(ctx, e.dur, false, mem)
		if err != nil {
			return err
		}
		endToEnd(e.r, l, setups, mem)
		return nil
	case traced:
		plain, _, err := s.measure(ctx, e.dur/2, false, nil)
		if err != nil {
			return err
		}
		e.r.ops(plain.attempted, plain.failed)
		l, log, err := s.tracedPhase(ctx, e.dur/2)
		if err != nil {
			return err
		}
		overhead(e.r, plain, l)
		return s.layers(ctx, log)
	default:
		_, log, err := s.tracedPhase(ctx, 3*time.Second)
		if err != nil {
			return err
		}
		return s.layers(ctx, log)
	}
}

// tracedPhase measures traced and reports the cache hit ratio of the
// phase from /v1/stats.
func (s *serveMix) tracedPhase(ctx context.Context, d time.Duration) (loop, []served, error) {
	c0, err := s.d.cacheStats(ctx)
	if err != nil {
		return loop{}, nil, err
	}
	l, log, err := s.measure(ctx, d, true, nil)
	if err != nil {
		return l, nil, err
	}
	s.e.r.ops(l.attempted, l.failed)
	c1, err := s.d.cacheStats(ctx)
	if err != nil {
		return l, nil, err
	}
	hits, lookups := c1.hits-c0.hits, c1.hits+c1.misses-c0.hits-c0.misses
	s.e.r.set("server.cache_hit_ratio", float64(hits)/float64(lookups), "ratio", int(lookups), "from /v1/stats over the traced phase")
	s.e.r.set("server.cache_lookups", float64(lookups), "count", int(lookups), "base of server.cache_hit_ratio")
	return l, log, nil
}

// replaySample is how many hits and how many misses the traced run replays
// in process.
const replaySample = 40

// layers replays a sample of the traced responses in process, timing each
// layer the daemon runs for them, and replays some hits through a gateway
// in front of the same daemon.
func (s *serveMix) layers(ctx context.Context, log []served) error {
	e := s.e
	seq, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		return err
	}
	var hits, misses []served
	for _, r := range log {
		if r.cache == "hit" {
			hits = append(hits, r)
		} else {
			misses = append(misses, r)
		}
	}
	var resHit, resMiss []float64
	var wall time.Duration
	for _, set := range [][]served{sample(hits, replaySample), sample(misses, replaySample)} {
		for _, r := range set {
			sum, err := s.replay(ctx, seq, r)
			if err != nil {
				return err
			}
			wall += r.lat
			res := float64(r.lat-sum) / 1e6
			if r.cache == "hit" {
				resHit = append(resHit, res)
			} else {
				resMiss = append(resMiss, res)
			}
		}
	}
	ls := e.tr.layers(func(s span) bool { return s.Name != "serve.request" })
	for _, name := range []string{"pixmap.decode", "regiongrow.hash", "regstats.compute", "server.encode"} {
		setLayer(e.r, name, ls[name], wall)
	}
	e.r.set("server.residual_hit_ms", median(resHit), "ms", len(resHit), "response latency minus replayed layers, hits")
	e.r.set("server.residual_miss_ms", median(resMiss), "ms", len(resMiss), "response latency minus replayed layers, misses")
	return s.gatewayHop(ctx, sample(hits, replaySample/2))
}

// sample picks up to n entries spread evenly over rs.
func sample(rs []served, n int) []served {
	if len(rs) <= n {
		return rs
	}
	out := make([]served, n)
	for i := range out {
		out[i] = rs[i*len(rs)/n]
	}
	return out
}

// replay runs, in process, the layers the daemon ran for response r and
// returns their summed time. A miss also pays the segmentation.
func (s *serveMix) replay(ctx context.Context, seq *regiongrow.Segmenter, r served) (time.Duration, error) {
	e := s.e
	body, _, err := r.key.pgm()
	if err != nil {
		return 0, err
	}
	op := e.tr.op()
	var sum time.Duration
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		e.tr.record(op, r.span, name, t0, d)
		sum += d
		return err
	}
	var im *regiongrow.Image
	if err := timed("pixmap.decode", func() (err error) {
		im, err = regiongrow.ReadPGM(bytes.NewReader(body))
		return err
	}); err != nil {
		return 0, err
	}
	var hash string
	_ = timed("regiongrow.hash", func() error {
		hash = regiongrow.HashImage(im)
		_ = regiongrow.CacheKeyForHash(hash, im.W, im.H, s.cfg, regiongrow.SequentialEngine)
		return nil
	})
	seg, err := seq.Segment(ctx, im, s.cfg)
	if r.cache != "hit" {
		// Segmenting again for the timing: the untimed call above only
		// warmed the session's buffers, as the daemon's would be.
		err = timed("core.segment", func() (err error) {
			seg, err = seq.Segment(ctx, im, s.cfg)
			return err
		})
	}
	if err != nil {
		return 0, err
	}
	var stats []regiongrow.RegionStat
	_ = timed("regstats.compute", func() error {
		stats = regstats.Compute(im, seg.Labels)
		return nil
	})
	err = timed("server.encode", func() error {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Engine string            `json:"engine"`
			Cache  string            `json:"cache"`
			Image  client.ImageMeta  `json:"image"`
			Config client.ConfigMeta `json:"config"`
			Result client.Result     `json:"result"`
		}{
			Engine: regiongrow.SequentialEngine.String(),
			Cache:  r.cache,
			Image:  client.ImageMeta{Width: im.W, Height: im.H, SHA256: hash},
			Config: client.ConfigMeta{Threshold: s.cfg.Threshold, Tie: s.cfg.Tie, Seed: s.cfg.Seed},
			Result: client.Result{
				FinalRegions:      seg.FinalRegions,
				SplitIterations:   seg.SplitIterations,
				MergeIterations:   seg.MergeIterations,
				SquaresAfterSplit: seg.SquaresAfterSplit,
				Regions:           stats,
			},
		})
	})
	return sum, err
}

// gatewayHop replays hits directly and through a regiongrow-gateway in
// front of the same daemon, alternating, and reports the median extra
// latency of the gateway path.
func (s *serveMix) gatewayHop(ctx context.Context, hits []served) error {
	e := s.e
	gw, err := spawn(ctx, e, "regiongrow-gateway", "-backends", s.d.base[len("http://"):], "-instance", "bench-gw")
	if err != nil {
		return err
	}
	defer gw.stop()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	var hops []float64
	q := serveQuery(s.cfg.Seed)
	for _, r := range hits {
		body, _, err := r.key.pgm()
		if err != nil {
			return err
		}
		direct, err := post(ctx, hc, s.d.base+q, body)
		if err != nil {
			return err
		}
		op := e.tr.op()
		t0 := time.Now()
		via, err := post(ctx, hc, gw.base+q, body)
		if err != nil {
			return err
		}
		e.tr.record(op, -1, "gateway.request", t0, via.lat)
		if via.digest != direct.digest || via.regions != direct.regions {
			return fmt.Errorf("gateway response differs from the daemon's")
		}
		hops = append(hops, float64(via.lat-direct.lat)/1e6)
	}
	e.r.set("gateway.hop_ms", median(hops), "ms", len(hops), "gateway minus direct latency of the same hit, median")
	return nil
}
