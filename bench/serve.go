package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"falseshare/internal/serve"
	"falseshare/internal/sim/cache"
	"falseshare/internal/workload/gen"
)

// request is one fsd call.
type request struct {
	Endpoint string
	Body     []byte
}

// populationSeed draws the request population every stream shares.
const populationSeed = 1

// populationBlock is the reach of a stream's reordering: requests
// [64b, 64b+64) of every stream are the same 64 population entries in
// a seeded order, so runs that get equally far meet the same mix of
// program sizes whatever their seed.
const populationBlock = 64

// serveRequest derives request i of the stream seeded by seed. Its
// knobs are a population entry; its program is generated with a seed
// unique to (seed, i), which varies the program's constants, so no two
// requests of a stream share a cache entry.
//
// No record of real fsd traffic exists, so the population is an
// assumption: 40% analyze, 30% transform with verification, and 30%
// simulate over every protocol × topology × version, at 4, 8 or 16
// processors and 32-, 64- or 128-byte blocks, every generator knob
// drawn uniformly over gen's documented range (64–4096 elements, so
// working sets straddle the simulated 32 KiB cache; 2–64 rounds).
// Requests set no ring size, so two-ring simulations take the daemon's
// default.
func serveRequest(seed, i int64) request {
	blk, j := i/populationBlock, i%populationBlock
	k := blk*populationBlock + int64(rand.New(rand.NewSource(seed*1_000_003 + blk)).Perm(populationBlock)[j])
	rng := rand.New(rand.NewSource(populationSeed*1_000_003 + k))
	p := gen.Params{
		Seed:          seed<<32 ^ i,
		Pattern:       gen.Patterns()[rng.Intn(len(gen.Patterns()))],
		Elems:         64 * (1 + rng.Intn(64)),
		Rounds:        2 + rng.Intn(63),
		StrideElems:   1 + rng.Intn(16),
		LockPct:       rng.Intn(101),
		FalseSharePct: rng.Intn(101),
	}
	body := map[string]any{
		"source":     gen.Generate(p),
		"nprocs":     []int{4, 8, 16}[rng.Intn(3)],
		"block_size": []int64{32, 64, 128}[rng.Intn(3)],
	}
	endpoint := "analyze"
	switch u := rng.Intn(10); {
	case u >= 7:
		endpoint = "simulate"
		protos, topos := cache.Protocols(), cache.Topologies()
		body["protocol"] = protos[rng.Intn(len(protos))].String()
		body["topology"] = topos[rng.Intn(len(topos))].String()
		body["version"] = []string{"original", "transformed"}[rng.Intn(2)]
	case u >= 4:
		endpoint = "transform"
		body["verify"] = true
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // a map of strings and numbers always marshals
	}
	return request{Endpoint: endpoint, Body: b}
}

// programOf recovers the layer-probe input a request describes.
func programOf(name string, r request, response []byte) (program, error) {
	var body struct {
		Source    string `json:"source"`
		Nprocs    int    `json:"nprocs"`
		BlockSize int64  `json:"block_size"`
		Version   string `json:"version"`
	}
	if err := json.Unmarshal(r.Body, &body); err != nil {
		return program{}, err
	}
	return program{
		Name: name, Source: body.Source, Nprocs: body.Nprocs, Block: body.BlockSize,
		Transformed: r.Endpoint == "transform" || body.Version == "transformed",
		Response:    response,
	}, nil
}

// fsd is a daemon on a loopback listener in this process, with the
// keep-alive client the load goroutines share: at most two
// connections, one per load goroutine.
type fsd struct {
	srv    *serve.Server
	url    string
	client *http.Client
	served chan error
	dir    string
}

func startFSD(o options) (*fsd, error) {
	dir, err := os.MkdirTemp(o.scratch, "fsd-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Workers: 2, CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &fsd{
		srv:    srv,
		url:    "http://" + ln.Addr().String() + "/v1/",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true}},
		served: make(chan error, 1),
		dir:    dir,
	}
	go func() { f.served <- srv.Serve(ln) }()
	return f, nil
}

// stop drains the daemon, waits for it to stop serving, and removes
// its cache.
func (f *fsd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bench: fsd drain: %v\n", err)
	}
	if err := <-f.served; err != nil {
		fmt.Fprintf(os.Stderr, "bench: fsd: %v\n", err)
	}
	f.client.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// call sends r, checks the response, and records a span with the
// handler's own time (X-Handler-Ns) and the rest of the round trip.
func (f *fsd) call(ctx context.Context, tr *tracer, op int64, r request) (*serve.Envelope, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+r.Endpoint, bytes.NewReader(r.Body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	d := time.Since(start)
	env, err := checkResponse(r.Endpoint, resp.StatusCode, body)
	if tr != nil {
		handler, _ := strconv.ParseInt(resp.Header.Get("X-Handler-Ns"), 10, 64)
		var cached int64
		if env != nil && env.Cached {
			cached = 1
		}
		tr.add(op, 0, "serve."+r.Endpoint, start, d, map[string]int64{
			"handler_ns": handler, "transport_ns": d.Nanoseconds() - handler, "cached": cached,
		})
	}
	return env, err
}

// fanOut runs task(0..n-1) on two goroutines, the load's concurrency,
// and returns the first error.
func fanOut(n int64, task func(i int64) error) error {
	var (
		mu    sync.Mutex
		next  int64
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || first != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := task(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// probeCandidates bounds the request indices the traced run samples
// from: every run sends them, so the sample is the same on every run
// with the same seed. serve-warm answers that many distinct requests in
// set-up and replays them. probeSample keeps a traced serve-warm run,
// set-up and window included, near 90 s on a 2-CPU machine.
const (
	probeCandidates = 512
	probeSample     = 100
)

// setupServeCold starts fsd with an empty cache; every window request
// is new.
func setupServeCold(ctx context.Context, o options) (*bench, error) {
	f, err := startFSD(o)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	responses := make([][]byte, probeCandidates)
	b := &bench{workers: 2, close: f.stop}
	b.op = func(ctx context.Context, tr *tracer, i int64) error {
		env, err := f.call(ctx, tr, i, serveRequest(o.seed, i))
		if err == nil && i < probeCandidates {
			mu.Lock()
			responses[i] = env.Result
			mu.Unlock()
		}
		return err
	}
	b.layers = func(ctx context.Context, tr *tracer) ([]metric, int64, int64, error) {
		progs, err := sampleRequests(o.seed, func(i int64) request { return serveRequest(o.seed, i) }, func(i int64) ([]byte, error) {
			if responses[i] != nil {
				return responses[i], nil
			}
			env, err := f.call(ctx, nil, 0, serveRequest(o.seed, i))
			if err != nil {
				return nil, err
			}
			return env.Result, nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
		return probeLayers(ctx, tr, o, progs, false)
	}
	return b, nil
}

// setupServeWarm starts fsd and answers 512 distinct requests once;
// the window replays them in a seeded order, so every response must
// come from the artifact cache, byte-equal to the first answer.
func setupServeWarm(ctx context.Context, o options) (*bench, error) {
	f, err := startFSD(o)
	if err != nil {
		return nil, err
	}
	reqs := make([]request, probeCandidates)
	first := make([][]byte, len(reqs))
	for i := range reqs {
		reqs[i] = serveRequest(o.seed, int64(i))
	}
	if err := fanOut(int64(len(reqs)), func(i int64) error {
		env, err := f.call(ctx, nil, 0, reqs[i])
		if err == nil {
			first[i] = env.Result
		}
		return err
	}); err != nil {
		f.stop()
		return nil, fmt.Errorf("first answers: %w", err)
	}
	order := rand.New(rand.NewSource(o.seed)).Perm(len(reqs))
	b := &bench{workers: 2, close: f.stop}
	b.op = func(ctx context.Context, tr *tracer, i int64) error {
		k := order[i%int64(len(order))]
		env, err := f.call(ctx, tr, i, reqs[k])
		switch {
		case err != nil:
			return err
		case !env.Cached:
			return fmt.Errorf("request %d recomputed instead of served from the cache", k)
		case !bytes.Equal(env.Result, first[k]):
			return fmt.Errorf("request %d: cached result differs from its first answer", k)
		}
		return nil
	}
	b.layers = func(ctx context.Context, tr *tracer) ([]metric, int64, int64, error) {
		progs, err := sampleRequests(o.seed, func(i int64) request { return reqs[i] }, func(i int64) ([]byte, error) { return first[i], nil })
		if err != nil {
			return nil, 0, 0, err
		}
		return probeLayers(ctx, tr, o, progs, false)
	}
	return b, nil
}

// sampleRequests draws the traced run's seeded sample of request
// indices and turns each into a layer-probe input with its response.
func sampleRequests(seed int64, req func(int64) request, response func(int64) ([]byte, error)) ([]program, error) {
	var progs []program
	for _, k := range rand.New(rand.NewSource(seed)).Perm(probeCandidates)[:probeSample] {
		i := int64(k)
		resp, err := response(i)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		p, err := programOf(fmt.Sprintf("request-%d", i), req(i), resp)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}
