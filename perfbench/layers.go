package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"astore/internal/agg"
	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/obs"
	"astore/internal/shard"
)

// workerTimes records every shard.Worker execution by the request ID of
// the query that scattered it.
type workerTimes struct {
	mu  sync.Mutex
	byQ map[string][]time.Duration // guarded by mu
}

func newWorkerTimes() *workerTimes { return &workerTimes{byQ: make(map[string][]time.Duration)} }

func (w *workerTimes) add(rid string, d time.Duration) {
	w.mu.Lock()
	w.byQ[rid] = append(w.byQ[rid], d)
	w.mu.Unlock()
}

func (w *workerTimes) get(rid string) []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.byQ[rid]
}

// timedWorker wraps a shard.Worker and times each Exec: the worker's HTTP
// hop, its shard-local execution and the partial's wire codec.
type timedWorker struct {
	shard.Worker
	times *workerTimes
}

func (w timedWorker) Exec(ctx context.Context, req shard.ExecRequest) (*shard.ExecResult, error) {
	t0 := time.Now()
	res, err := w.Worker.Exec(ctx, req)
	w.times.add(obs.RequestIDFrom(ctx), time.Since(t0))
	return res, err
}

// stageSamples collects per-read values of the traced stages.
type stageSamples struct {
	self     map[string][]float64 // stage -> self time per read, µs
	httpUS   []float64            // round trip minus server elapsed_us
	rows     []float64            // scan rows_in per read
	tailRows []float64            // cache tail_rows per read

	planSpans, planHits   int
	segments, segsPruned  int
	aggHits, aggMisses    int
	workerUS, gatherUS    []float64
	straggler             []float64
	tracedLat, untraceLat []float64 // ms
}

// collectStages parses the traced reads' span trees after the phase.
func collectStages(p *phase, workers *workerTimes) (*stageSamples, error) {
	s := &stageSamples{self: make(map[string][]float64)}
	for i := range p.reads {
		r := &p.reads[i]
		if !r.ok || r.at < 0 {
			continue
		}
		ms := float64(r.lat) / 1e6
		if !r.traced {
			s.untraceLat = append(s.untraceLat, ms)
			continue
		}
		s.tracedLat = append(s.tracedLat, ms)
		var resp queryResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return nil, fmt.Errorf("perfbench: traced response: %w", err)
		}
		if resp.Trace == nil {
			return nil, fmt.Errorf("perfbench: traced response without a trace")
		}
		s.httpUS = append(s.httpUS, float64(r.lat)/1e3-float64(resp.ElapsedUS))
		s.walk(resp.Trace)
		if workers != nil {
			if ws := workers.get(r.rid); len(ws) > 0 {
				var sum, max float64
				for _, d := range ws {
					us := float64(d) / 1e3
					s.workerUS = append(s.workerUS, us)
					sum += us
					max = math.Max(max, us)
				}
				s.straggler = append(s.straggler, max/(sum/float64(len(ws))))
				if sc := findSpan(resp.Trace, obs.StageScatter); sc != nil {
					s.gatherUS = append(s.gatherUS, sc.DurUS-max)
				}
			}
		}
	}
	return s, nil
}

// walk records the self time of every stage span in the tree: its duration
// minus the part its children cover.
func (s *stageSamples) walk(sp *obs.Span) {
	self := sp.DurUS
	for _, c := range sp.Children {
		self -= c.DurUS
		s.walk(c)
	}
	s.self[sp.Name] = append(s.self[sp.Name], self)
	switch sp.Name {
	case obs.StagePlanCache:
		s.planSpans++
		if sp.CacheHit != nil && *sp.CacheHit {
			s.planHits++
		}
	case obs.StagePrune:
		s.segments += sp.Segments
		s.segsPruned += sp.SegmentsPruned
	case obs.StageCache:
		if sp.AggCache != nil {
			s.aggHits += sp.AggCache.Hits
			s.aggMisses += sp.AggCache.Misses
			s.tailRows = append(s.tailRows, float64(sp.AggCache.TailRows))
		}
	case obs.StageScan:
		s.rows = append(s.rows, float64(sp.RowsIn))
	}
}

func findSpan(sp *obs.Span, name string) *obs.Span {
	if sp.Name == name {
		return sp
	}
	for _, c := range sp.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// codecSample is the partial wire codec measured on one shard's partial.
type codecSample struct {
	bytes, marshalUS, unmarshalUS []float64
}

// probeCodec executes each SSB text as two shard partials in-process and
// times MarshalBinary and UnmarshalPartial on each, the codec the HTTP
// shard hop runs.
func probeCodec(ctx context.Context, d *db.DB) (*codecSample, error) {
	cs := &codecSample{}
	texts := ssb.QueriesSQL()
	for _, name := range ssbNames() {
		p, err := d.PrepareSQL(texts[name])
		if err != nil {
			return nil, err
		}
		for sh := 0; sh < 2; sh++ {
			var st core.Stats
			pr, err := p.ExecPartial(ctx, db.PartialRequest{Shard: sh, NShards: 2}, &st)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			wire, err := pr.Partial.MarshalBinary()
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if _, err := agg.UnmarshalPartial(wire); err != nil {
				return nil, err
			}
			t2 := time.Now()
			cs.bytes = append(cs.bytes, float64(len(wire)))
			cs.marshalUS = append(cs.marshalUS, float64(t1.Sub(t0))/1e3)
			cs.unmarshalUS = append(cs.unmarshalUS, float64(t2.Sub(t1))/1e3)
		}
	}
	return cs, nil
}

// table5 times the 13 SSB queries on A-Store with the aggregate cache off
// over the oracle's flat copy and returns the geometric mean of hash-join
// time over A-Store time (the paper's Table 5 comparison).
func table5(ctx context.Context, o *oracle, hashJoin map[string]time.Duration) (float64, error) {
	d, err := db.Open(o.data.DB, core.Options{Workers: 2, AggCacheBytes: -1})
	if err != nil {
		return 0, err
	}
	texts := ssb.QueriesSQL()
	var logSum float64
	for _, name := range ssbNames() {
		p, err := d.PrepareSQL(texts[name])
		if err != nil {
			return 0, err
		}
		best := time.Duration(math.MaxInt64)
		for run := 0; run < 3; run++ {
			t0 := time.Now()
			if _, err := p.Exec(ctx); err != nil {
				return 0, err
			}
			best = min(best, time.Since(t0))
		}
		logSum += math.Log(float64(hashJoin[name]) / float64(best))
	}
	return math.Exp(logSum / float64(len(texts))), nil
}
