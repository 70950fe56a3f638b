package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"regiongrow"
	"regiongrow/client"
)

// segmentResponse is the JSON document returned by POST /v1/segment. Its
// meta blocks are the same wire structs the job records use (the typed
// Tie and the shared image meta marshal to identical JSON, so the
// response stays byte-compatible across the job-API redesign — pinned by
// test).
type segmentResponse struct {
	Engine string            `json:"engine"`
	Cache  string            `json:"cache"` // "hit" or "miss"
	Image  client.ImageMeta  `json:"image"`
	Config client.ConfigMeta `json:"config"`
	Result client.Result     `json:"result"`
}

// segmentRequest is a parsed and validated segmentation request — the
// common currency of /v1/segment, /v1/jobs, and /v1/batch.
type segmentRequest struct {
	im        *regiongrow.Image
	imageName string
	cfg       regiongrow.Config
	kind      regiongrow.EngineKind
	format    string // "json" or "pgm"
	labels    bool
}

// SegmentParams is the validated form of the query parameters every
// submission endpoint shares, with the endpoint defaults (engine
// sequential, threshold 10, random ties, seed 1, the N/8 square cap,
// JSON out) already applied. The fleet gateway parses with the same
// function the server does, so routing-time cache keys can never be
// computed under different defaults than the backend will serve.
type SegmentParams struct {
	Kind      regiongrow.EngineKind
	Config    regiongrow.Config
	Format    string // "json" or "pgm"
	Labels    bool
	ImageName string // paper image by name; empty when the body carries a PGM
}

// ParseSegmentValues parses the submission query parameters into their
// validated form. It is a pure function of q: engine availability (the
// conditional dist kind) is checked by the serving layer, not here.
func ParseSegmentValues(q url.Values) (SegmentParams, error) {
	p := SegmentParams{
		Config: regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1},
		Kind:   regiongrow.SequentialEngine,
		Format: "json",
	}
	var err error
	if v := q.Get("engine"); v != "" {
		if p.Kind, err = regiongrow.ParseEngineKind(v); err != nil {
			return p, err
		}
	}
	if v := q.Get("tie"); v != "" {
		if p.Config.Tie, err = regiongrow.ParseTiePolicy(v); err != nil {
			return p, err
		}
	}
	if v := q.Get("threshold"); v != "" {
		if p.Config.Threshold, err = strconv.Atoi(v); err != nil || p.Config.Threshold < 0 {
			return p, fmt.Errorf("bad threshold %q (want a non-negative integer)", v)
		}
	}
	if v := q.Get("seed"); v != "" {
		if p.Config.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return p, fmt.Errorf("bad seed %q (want an unsigned integer)", v)
		}
	}
	if v := q.Get("maxsquare"); v != "" {
		if p.Config.MaxSquare, err = strconv.Atoi(v); err != nil || p.Config.MaxSquare < -1 {
			return p, fmt.Errorf("bad maxsquare %q (want -1 for unbounded, 0 for the N/8 default, or a positive cap)", v)
		}
	}
	switch v := q.Get("format"); v {
	case "", "json":
		p.Format = "json"
	case "pgm":
		p.Format = "pgm"
	default:
		return p, fmt.Errorf("bad format %q (want json or pgm)", v)
	}
	p.Labels = q.Get("labels") == "1"
	p.ImageName = q.Get("image")
	return p, nil
}

// parseSegmentParams parses the query parameters shared by every
// submission endpoint, leaving image resolution to the caller.
func (s *Server) parseSegmentParams(q url.Values) (*segmentRequest, error) {
	p, err := ParseSegmentValues(q)
	if err != nil {
		return nil, err
	}
	if _, ok := s.segmenters[p.Kind]; !ok {
		// Only the Distributed kind is conditional: it exists when the
		// server was started with cluster workers.
		return nil, fmt.Errorf("engine %q is not enabled on this server (start regiongrowd with -cluster host:port,... to serve it)", p.Kind)
	}
	return &segmentRequest{
		imageName: p.ImageName,
		cfg:       p.Config,
		kind:      p.Kind,
		format:    p.Format,
		labels:    p.Labels,
	}, nil
}

// parseSegmentRequest parses a full submission: the shared parameters
// plus the image, resolved from the paper-image name or the PGM body.
func (s *Server) parseSegmentRequest(r *http.Request) (*segmentRequest, error) {
	req, err := s.parseSegmentParams(r.URL.Query())
	if err != nil {
		return nil, err
	}
	if req.imageName != "" {
		id, err := regiongrow.ParsePaperImageID(req.imageName)
		if err != nil {
			return nil, err
		}
		req.im = regiongrow.GeneratePaperImage(id)
		return req, nil
	}
	im, err := regiongrow.ReadPGM(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, fmt.Errorf("request body exceeds the %d-byte upload limit: %w", tooBig.Limit, err)
		}
		return nil, fmt.Errorf("reading PGM body: %w (upload a P2/P5 PGM or pass ?image=image1…image6)", err)
	}
	req.im = im
	return req, nil
}

func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, err := s.parseSegmentRequest(r)
	if err != nil {
		s.metrics.failed.Add(1)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}

	// The synchronous path is a thin waiter over the same job machinery
	// /v1/jobs runs on: register a record, enqueue the compute, block on
	// the terminal signal. Only the context wiring differs — the job
	// shares the request context (plus the optional deadline), so a
	// disconnect cancels the compute within one iteration unless the
	// warm-abandoned policy detaches it.
	var waitCtx context.Context
	var cancel context.CancelFunc
	if s.opts.RequestTimeout > 0 {
		waitCtx, cancel = context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	} else {
		waitCtx, cancel = context.WithCancel(r.Context())
	}
	defer cancel()
	runCtx := waitCtx
	if s.opts.WarmAbandoned {
		runCtx = context.WithoutCancel(waitCtx)
	}
	// The record carries the real cancel, so a DELETE on the (normally
	// unrevealed) job ID aborts a non-warm synchronous compute just like
	// an async one. The job's monitor also fires it on completion, which
	// is why the wait below re-checks the terminal signal before
	// classifying a context wake-up.
	e, err := s.startJob(runCtx, cancel, req, true)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrStoreFull):
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "job queue full, retry later", http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrClosed):
		s.metrics.failed.Add(1)
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	case err != nil:
		s.metrics.failed.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	deadline504 := func() {
		// The per-request deadline fired. Unless WarmAbandoned keeps the
		// job running, the compute has been cancelled within one
		// split/merge iteration; tell the client how far it got.
		s.metrics.canceledDeadline.Add(1)
		http.Error(w, fmt.Sprintf("deadline exceeded after %v during %s",
			s.opts.RequestTimeout, e.tracker.StageString()), http.StatusGatewayTimeout)
	}
	defer e.release()
	terminal := false
	select {
	case <-e.waitTerminal():
		terminal = true
	case <-waitCtx.Done():
		// The monitor cancels waitCtx right after completing the record,
		// so both channels may be ready; prefer the result over a
		// spurious timeout/disconnect classification.
		select {
		case <-e.waitTerminal():
			terminal = true
		default:
		}
	}
	var seg *regiongrow.Segmentation
	if terminal {
		var jobErr error
		seg, jobErr = e.outcome()
		switch {
		case jobErr == nil:
		case errors.Is(jobErr, context.DeadlineExceeded):
			deadline504()
			return
		case errors.Is(jobErr, context.Canceled):
			// The client went away. Nobody is listening for this
			// response, and it is not a server failure; under
			// WarmAbandoned the job still completes on its worker and
			// warms the cache via the pool callback.
			s.metrics.canceledDisconnect.Add(1)
			return
		default:
			s.metrics.failed.Add(1)
			http.Error(w, jobErr.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		if errors.Is(waitCtx.Err(), context.DeadlineExceeded) {
			deadline504()
			return
		}
		s.metrics.canceledDisconnect.Add(1)
		return
	}
	s.metrics.served.Add(1)

	cacheState := e.cache
	if req.format == "pgm" {
		w.Header().Set("Content-Type", "image/x-portable-graymap")
		w.Header().Set("X-Cache", cacheState)
		w.Header().Set("X-Final-Regions", strconv.Itoa(seg.FinalRegions))
		if err := regiongrow.WritePGM(w, regiongrow.Recolour(seg, req.im)); err != nil {
			// Headers are gone; nothing left to do but drop the conn.
			return
		}
		return
	}

	resp := segmentResponse{
		Engine: req.kind.String(),
		Cache:  cacheState,
		Image: client.ImageMeta{
			Name:   req.imageName,
			Width:  req.im.W,
			Height: req.im.H,
			SHA256: e.imageHash,
		},
		Config: client.ConfigMeta{
			Threshold: req.cfg.Threshold,
			Tie:       req.cfg.Tie,
			Seed:      req.cfg.Seed,
			MaxSquare: req.cfg.MaxSquare,
		},
		Result: *buildResult(seg, req.im, req.labels),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
