package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/server"
	"astore/internal/shard"
	"astore/internal/storage"
)

// serveOptions are the astore-serve defaults plus two scan workers:
// 128Ki-row segments, plain chunks, the default 64 MB aggregate cache and
// 256-plan cache.
func serveOptions() core.Options {
	return core.Options{Workers: 2, SegmentRows: storage.DefaultSegmentRows}
}

// serverConfig is the astore-serve default admission: MaxInFlight 4.
func serverConfig() server.Config { return server.Config{MaxInFlight: 4} }

// topology is one running deployment: the DB and every HTTP server over
// it. Clients send queries and appends to url.
type topology struct {
	data    *ssb.Data
	db      *db.DB
	coord   *shard.Coordinator
	workers *workerTimes // shard.Worker timings; nil unless traced and sharded
	servers []*loopback  // coordinator (or single server) first
	url     string
}

// loopback is one server.Server on a 127.0.0.1 listener.
type loopback struct {
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
	url  string
}

func listen(srv *server.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("perfbench: listen: %w", err)
	}
	lb := &loopback{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return lb, nil
}

// stop drains the server (in-flight queries finish and release their pins)
// and closes the listener, returning once the serve goroutine has exited.
func (lb *loopback) stop(ctx context.Context) error {
	err := lb.srv.Shutdown(ctx)
	if herr := lb.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	<-lb.done
	return err
}

// open starts the workload's deployment over freshly generated data. The
// sharded workload runs a coordinator with two HTTPWorkers on two
// ShardWorker loopback servers, all over one DB; the others run one server.
func open(data *ssb.Data, sharded, traced bool) (*topology, error) {
	d, err := db.Open(data.DB, serveOptions())
	if err != nil {
		return nil, err
	}
	top := &topology{data: data, db: d}
	if !sharded {
		lb, err := listen(server.New(d, serverConfig()))
		if err != nil {
			return nil, err
		}
		top.servers, top.url = []*loopback{lb}, lb.url
		return top, nil
	}
	var workers []shard.Worker
	if traced {
		top.workers = newWorkerTimes()
	}
	var shardServers []*loopback
	for i := 0; i < 2; i++ {
		cfg := serverConfig()
		cfg.ShardWorker = true
		lb, err := listen(server.New(d, cfg))
		if err != nil {
			top.close(context.Background())
			return nil, err
		}
		shardServers = append(shardServers, lb)
		top.servers = append(top.servers, lb)
		hw := shard.NewHTTPWorker(lb.url, 30*time.Second)
		hw.SetSlice(i, 2)
		var w shard.Worker = hw
		if traced {
			w = timedWorker{Worker: hw, times: top.workers}
		}
		workers = append(workers, w)
	}
	coord, err := shard.New(d, workers, shard.Options{})
	if err != nil {
		top.close(context.Background())
		return nil, err
	}
	cfg := serverConfig()
	cfg.Coordinator = coord
	lb, err := listen(server.New(d, cfg))
	if err != nil {
		top.close(context.Background())
		return nil, err
	}
	top.coord = coord
	top.servers = append([]*loopback{lb}, shardServers...)
	top.url = lb.url
	return top, nil
}

// close stops every server, coordinator first.
func (t *topology) close(ctx context.Context) error {
	var errs []error
	for _, lb := range t.servers {
		errs = append(errs, lb.stop(ctx))
	}
	t.servers = nil
	return errors.Join(errs...)
}

// warm sends the 13 SSB texts once, untimed, so the plan and aggregate
// caches hold them.
func (t *topology) warm(ctx context.Context) error {
	c := newClient()
	defer c.CloseIdleConnections()
	texts := ssb.QueriesSQL()
	for _, name := range ssbNames() {
		status, _, body, err := post(ctx, c, t.url+"/v1/query", newReadReq(name, texts[name]).body)
		if err != nil {
			return fmt.Errorf("perfbench: warm %s: %w", name, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("perfbench: warm %s: status %d: %s", name, status, body)
		}
	}
	return nil
}

// newClient returns an HTTP client that holds at most one connection, so
// a workload's connection count equals its client count.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// post sends one JSON body and returns the status, the request ID the
// server assigned, and the whole response.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, string, []byte, error) {
	var buf bytes.Buffer
	status, rid, err := postInto(ctx, c, url, body, &buf)
	return status, rid, buf.Bytes(), err
}

// postInto is post reading the response into buf.
func postInto(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Astore-Request-Id"), err
}
