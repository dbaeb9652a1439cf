package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/obs"
	"astore/internal/shard"
)

// workload is one traffic mix.
type workload struct {
	readers  int  // closed-loop query clients
	adhoc    bool // generated texts instead of the 13 SSB texts
	appender bool // open-loop appender beside the readers
	sharded  bool // queries go through a shard coordinator
	check    checkMode
	split    *splitRule // what the traced run should show; nil = no claim
}

var workloads = map[string]workload{
	"adhoc": {readers: readClients, adhoc: true, check: checkSampled, split: &splitRule{
		"scan stages and cache take at least half", func(s shares) bool { return s.scan+s.cache >= 0.5 }}},
	"ingest": {readers: 1, appender: true, check: checkNone, split: &splitRule{
		"front end and cache take at least half", func(s shares) bool { return s.front+s.cache >= 0.5 }}},
	"sharded": {readers: readClients, sharded: true, check: checkAll, split: &splitRule{
		"scatter-gather takes at least half", func(s shares) bool { return s.fan >= 0.5 }}},
}

// adhocSampleEvery is the oracle's sampling stride over adhoc positions.
const adhocSampleEvery = 64

// counters are the program's own counters read around the timed phase.
type counters struct {
	db     db.Stats
	coord  shard.Stats
	sealed int
	rows   int
}

func (t *topology) counters() counters {
	c := counters{db: t.db.Stats(), rows: t.data.Lineorder.NumRows()}
	c.sealed, _ = t.data.Lineorder.SegmentCounts()
	if t.coord != nil {
		c.coord = t.coord.Stats()
	}
	return c
}

// run executes one benchmark run and returns its report.
func run(ctx context.Context, cfg config) (*report, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want adhoc, ingest or sharded)", cfg.workload)
	}
	if cfg.setups < 1 || cfg.seconds <= 0 {
		return nil, fmt.Errorf("need at least one set-up and a positive phase length")
	}
	top, st, setups, err := setUp(ctx, cfg, wl)
	if err != nil {
		return nil, err
	}
	defer func() {
		if top != nil {
			top.close(ctx)
		}
	}()

	// A read-only workload splits --seconds between its reads and the
	// append probe that follows them.
	readLen, probeLen := cfg.seconds, time.Duration(0)
	if !wl.appender {
		probeLen = cfg.seconds / probeShare
		readLen -= probeLen
	}
	before := top.counters()
	p := runPhase(ctx, top.url, st, wl.readers, wl.appender, wl.check, readLen, cfg.trace)
	after := top.counters()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)

	rep := &report{}
	appends := p.appends
	if !wl.appender {
		appends = probeAppends(ctx, top.url, st, probeLen)
	}
	var codec *codecSample
	if cfg.trace && wl.sharded {
		if codec, err = probeCodec(ctx, top.db); err != nil {
			return nil, err
		}
	}
	var finals map[string][]byte
	if wl.appender {
		finals = rep.finalState(ctx, top.url)
	}
	acked, ackedRows := rep.tally(p, st, appends)
	wantRows := before.rows + ackedRows
	drained, factBytesPerRow, err := rep.drain(ctx, top, wantRows)
	if err != nil {
		return nil, err
	}
	workers := top.workers
	top = nil
	runtime.GC()
	verified, t5, err := rep.verify(ctx, cfg, wl, st, p, finals, acked, wantRows)
	if err != nil {
		return nil, err
	}
	rep.Correct = drained && verified

	if cfg.trace {
		err := rep.layers(p, wl, before, after, appends, codec, workers, t5, factBytesPerRow)
		if err != nil {
			return nil, err
		}
	} else {
		rep.endToEnd(p, setups, heapMB, appends)
	}
	rep.note("%s: seed %d, SF %g, %v phase, %v append probe, %d reads, %d appends (%d rows acknowledged), failed_frac %.6f",
		cfg.workload, cfg.seed, cfg.sf, readLen, probeLen, len(p.reads), len(appends), ackedRows,
		ratio(float64(rep.Failed), float64(rep.Attempted)))
	return rep, nil
}

// setUp deploys the workload cfg.setups times and returns the last
// deployment, the request stream and each set-up's seconds. Building the
// stream sits between generation and db.Open (it reads the flat lineorder)
// and is not counted.
func setUp(ctx context.Context, cfg config, wl workload) (*topology, *stream, []float64, error) {
	var top *topology
	var st *stream
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if top != nil {
			if err := top.close(ctx); err != nil {
				return nil, nil, nil, err
			}
			top = nil
			runtime.GC()
		}
		t0 := time.Now()
		data := ssb.Generate(ssb.Config{SF: cfg.sf, Seed: cfg.seed})
		gen := time.Since(t0)
		if st == nil {
			b := newStream(cfg.seed*7919+17, data)
			if wl.adhoc {
				b.adhoc(max(256, int(150*cfg.seconds.Seconds())), adhocSampleEvery)
			} else {
				b.repeated()
			}
			st = b.appends(appendPool, appendRows).build()
		}
		t1 := time.Now()
		var err error
		if top, err = open(data, wl.sharded, cfg.trace); err != nil {
			return nil, nil, nil, err
		}
		if err := top.warm(ctx); err != nil {
			top.close(ctx)
			return nil, nil, nil, err
		}
		setups = append(setups, (gen + time.Since(t1)).Seconds())
	}
	return top, st, setups, nil
}

// finalState reads the 13 SSB texts once more after the phase, for the
// ingest oracle.
func (r *report) finalState(ctx context.Context, url string) map[string][]byte {
	finals := make(map[string][]byte)
	c := newClient()
	defer c.CloseIdleConnections()
	texts := ssb.QueriesSQL()
	for _, name := range ssbNames() {
		status, _, body, err := post(ctx, c, url+"/v1/query", newReadReq(name, texts[name]).body)
		r.Attempted++
		if err != nil || status != http.StatusOK {
			r.Failed++
			r.note("final-state %s failed: status %d, %v", name, status, err)
			continue
		}
		finals[name] = body
	}
	return finals
}

// tally counts the phase's reads and the appends as attempted or failed,
// and returns the acknowledged batches and their row count.
func (r *report) tally(p *phase, st *stream, appends []appendRec) (acked []int, rows int) {
	for i := range p.reads {
		r.Attempted++
		if !p.reads[i].ok {
			r.Failed++
		}
	}
	for _, a := range appends {
		r.Attempted++
		if !a.ok {
			r.Failed++
			continue
		}
		acked = append(acked, a.batch)
		rows += len(st.appends[a.batch].rows)
	}
	return acked, rows
}

// drain checks the row count, measures the fact table's bytes per row,
// shuts every server down and checks that no snapshot pin is left.
func (r *report) drain(ctx context.Context, top *topology, wantRows int) (ok bool, factBytesPerRow float64, err error) {
	ok = true
	lo := top.data.Lineorder
	if got := lo.NumRows(); got != wantRows {
		ok = false
		r.note("lineorder has %d rows, want %d (initial plus acknowledged)", got, wantRows)
	}
	factBytesPerRow = ratio(float64(lo.MemBytes()), float64(lo.NumRows()))
	if err := top.close(ctx); err != nil {
		return false, 0, fmt.Errorf("drain: %w", err)
	}
	for _, t := range top.db.Catalog().Tables() {
		if n := t.Pins(); n != 0 {
			ok = false
			r.note("table %s holds %d snapshot pins after drain", t.Name, n)
		}
	}
	return ok, factBytesPerRow, nil
}

// verify checks the recorded responses against the oracle, a flat copy of
// the data from the same seed answered by hash joins. Each mismatched
// response counts as failed. In traced runs it also returns the Table 5
// ratio.
func (r *report) verify(ctx context.Context, cfg config, wl workload, st *stream, p *phase,
	finals map[string][]byte, acked []int, wantRows int) (ok bool, table5x float64, err error) {
	o := newOracle(cfg.seed, cfg.sf)
	mismatches := 0
	fail := func(count int, format string, args ...any) {
		mismatches += count
		r.note(format, args...)
	}
	texts := ssb.QueriesSQL()
	hashJoin := make(map[string]time.Duration)
	want := make(map[string]*expected)
	if wl.check == checkAll || cfg.trace {
		for _, name := range ssbNames() {
			if want[name], hashJoin[name], err = o.expect(texts[name]); err != nil {
				return false, 0, err
			}
		}
	}
	for k, b := range p.bodies {
		switch wl.check {
		case checkAll:
			name := st.reads[k.text].name
			if err := check(b.body, want[name]); err != nil {
				fail(b.count, "%s: %d responses differ from the oracle: %v", name, b.count, err)
			}
		case checkSampled:
			q := st.reads[k.text]
			w, _, err := o.expect(q.sql)
			if err != nil {
				return false, 0, err
			}
			if err := check(b.body, w); err != nil {
				fail(1, "adhoc position %d (%s) differs from the oracle: %v\n  %s", k.text, q.name, err, q.sql)
			}
		}
	}
	if wl.check == checkSampled {
		r.note("oracle checked %d sampled adhoc responses", len(p.bodies))
	}
	if cfg.trace {
		if table5x, err = table5(ctx, o, hashJoin); err != nil {
			return false, 0, err
		}
	}
	if wl.appender {
		if err := o.replay(st.appends, acked); err != nil {
			return false, 0, err
		}
		if got := o.data.Lineorder.NumRows(); got != wantRows {
			return false, 0, fmt.Errorf("oracle replay has %d rows, want %d", got, wantRows)
		}
		for _, name := range ssbNames() {
			body, ok := finals[name]
			if !ok {
				continue
			}
			w, _, err := o.expect(texts[name])
			if err != nil {
				return false, 0, err
			}
			if err := check(body, w); err != nil {
				fail(1, "final-state %s differs from the oracle: %v", name, err)
			}
		}
	}
	r.Failed += int64(mismatches)
	return mismatches == 0, table5x, nil
}

// windows is the number of equal slices of the phase (reads) or of the
// append sequence whose medians and rates are reported as their median, so
// a burst of outside load in one slice does not move the run's figure.
const windows = 9

// p99Reads is the fewest reads a group of windows needs for its own p99:
// ten reads beyond the percentile.
const p99Reads = 1000

// appendThirds is the number of equal parts of the append sequence whose
// p99s are reported as their median, so a host slowdown in one part does
// not move the run's figure. ingest's 1,200 batches give 400 a part
// (10 s); the probe's 2,400 or more give a part of about 3.3 s.
const appendThirds = 3

// endToEnd sets the untraced run's metrics.
func (r *report) endToEnd(p *phase, setups []float64, heapMB float64, appends []appendRec) {
	var lat []float64
	byWindow := make([][]float64, windows)
	for i := range p.reads {
		if rd := &p.reads[i]; rd.ok && rd.at >= 0 {
			ms := float64(rd.lat) / 1e6
			lat = append(lat, ms)
			k := min(int(rd.at*windows/p.length), windows-1)
			byWindow[k] = append(byWindow[k], ms)
		}
	}
	var alat []float64
	for _, a := range appends {
		if a.ok {
			alat = append(alat, float64(a.lat)/1e6)
		}
	}
	var qps, p50, ap50 []float64
	for k, w := range byWindow {
		qps = append(qps, float64(len(w))/(p.length.Seconds()/windows))
		p50 = append(p50, median(w))
		chunk := alat[k*len(alat)/windows : (k+1)*len(alat)/windows]
		ap50 = append(ap50, median(append([]float64(nil), chunk...)))
	}
	// read_p99_ms: the p99 of each group of consecutive windows holding at
	// least p99Reads reads, median over the groups; one group when the
	// phase holds fewer.
	groups := max(1, min(windows, len(lat)/p99Reads))
	var p99 []float64
	for g := 0; g < groups; g++ {
		var vals []float64
		for k := g * windows / groups; k < (g+1)*windows/groups; k++ {
			vals = append(vals, byWindow[k]...)
		}
		p99 = append(p99, quantile(vals, 0.99))
	}
	var ap99 []float64
	for g := 0; g < appendThirds; g++ {
		part := alat[g*len(alat)/appendThirds : (g+1)*len(alat)/appendThirds]
		ap99 = append(ap99, quantile(append([]float64(nil), part...), 0.99))
	}
	r.note("per window: read_qps %.1f, read_p50_ms %.3f, append_p50_ms %.3f; read_p99_ms per group %.3f; "+
		"append_p99_ms per third %.3f, over all %.3f", qps, p50, ap50, p99, ap99, quantile(alat, 0.99))
	r.set("setup_s", median(setups), "s")
	r.set("heap_mb", heapMB, "MB")
	r.set("read_qps", median(qps), "1/s")
	r.set("read_p50_ms", median(p50), "ms")
	r.set("read_p99_ms", median(p99), "ms")
	r.set("append_p50_ms", median(ap50), "ms")
	r.set("append_p99_ms", median(ap99), "ms")
	r.note("%d successful reads, %d successful append batches", len(lat), len(alat))
}

// layers sets the traced run's per-layer metrics.
func (r *report) layers(p *phase, wl workload, before, after counters, appends []appendRec,
	codec *codecSample, workers *workerTimes, table5x float64, factBytesPerRow float64) error {
	s, err := collectStages(p, workers)
	if err != nil {
		return err
	}
	stage := func(name string) float64 { return median(s.self[name]) }
	r.set("server.http_us", median(s.httpUS), "us")
	r.set("sql.parse_us", stage(obs.StageParse), "us")
	r.set("db.plan_cache_us", stage(obs.StagePlanCache), "us")
	r.set("db.plan_hit_ratio", ratio(float64(s.planHits), float64(s.planSpans)), "ratio")
	r.set("db.pin_us", stage(obs.StagePin), "us")
	r.set("core.prune_us", stage(obs.StagePrune), "us")
	r.set("core.segments_pruned_ratio", ratio(float64(s.segsPruned), float64(s.segments)), "ratio")
	r.set("core.bind_us", stage(obs.StageBind), "us")
	r.set("core.scan_us", stage(obs.StageScan), "us")
	r.set("core.rows_scanned", median(s.rows), "rows")
	r.set("core.cache_us", stage(obs.StageCache), "us")
	r.set("core.aggcache_hit_ratio", ratio(float64(s.aggHits), float64(s.aggHits+s.aggMisses)), "ratio")
	r.set("core.tail_rows", median(s.tailRows), "rows")
	r.set("core.merge_us", stage(obs.StageMerge), "us")
	r.set("shard.scatter_us", stage(obs.StageScatter), "us")
	r.set("shard.gather_us", median(s.gatherUS), "us")
	r.set("shard.worker_us", median(s.workerUS), "us")
	r.set("shard.straggler_ratio", median(s.straggler), "ratio")
	r.set("shard.repins", float64(after.coord.Repins-before.coord.Repins), "count")
	var wire, mar, unmar float64
	if codec != nil {
		wire, mar, unmar = median(codec.bytes), median(codec.marshalUS), median(codec.unmarshalUS)
	}
	r.set("agg.wire_bytes", wire, "bytes")
	r.set("agg.marshal_us", mar, "us")
	r.set("agg.unmarshal_us", unmar, "us")
	var perRow, lag []float64
	for _, a := range appends {
		if a.ok {
			perRow = append(perRow, float64(a.rtt)/1e3/appendRows)
			lag = append(lag, float64(a.lag)/1e6)
		}
	}
	r.set("storage.append_us_per_row", median(perRow), "us")
	r.set("storage.seals", float64(after.sealed-before.sealed), "count")
	r.set("storage.fact_bytes_per_row", factBytesPerRow, "bytes")
	r.set("mem.aggcache_mb", float64(after.db.AggCacheBytes)/(1<<20), "MB")
	r.set("mem.aggcache_evictions", float64(after.db.AggCacheEvictions-before.db.AggCacheEvictions), "count")
	r.set("mem.bindcache_mb", float64(after.db.BindCacheBytes)/(1<<20), "MB")
	untraced := float64(len(s.untraceLat))
	r.set("mem.alloc_kb_per_read", ratio(float64(p.untracedAlloc)/1024, untraced), "KB")
	r.set("mem.gc_per_1k_reads", ratio(1000*float64(p.untracedGC), untraced), "count")
	genLag := 0.0
	if wl.appender {
		genLag = quantile(lag, 0.99)
	}
	r.set("gen.append_lag_ms", genLag, "ms")
	t, u := median(s.tracedLat), median(s.untraceLat)
	r.set("obs.trace_overhead_pct", 100*ratio(t-u, u), "%")
	r.set("paper.table5_hashjoin_x", table5x, "x")
	r.split(s, wl.split)
	return nil
}

// shares splits the median traced read into stage groups, as fractions.
type shares struct {
	front float64 // http, parse, plan_cache, pin
	cache float64 // cache
	scan  float64 // prune, bind, scan, merge
	fan   float64 // scatter (sharded)
}

// splitRule is the stage split a workload is meant to show.
type splitRule struct {
	desc  string
	holds func(shares) bool
}

// split reports where a traced read's time goes and whether the
// workload's intended split holds.
func (r *report) split(s *stageSamples, rule *splitRule) {
	group := func(names ...string) float64 {
		var sum float64
		for _, n := range names {
			sum += median(s.self[n])
		}
		return sum
	}
	sh := shares{
		front: median(s.httpUS) + group(obs.StageParse, obs.StagePlanCache, obs.StagePin),
		cache: group(obs.StageCache),
		scan:  group(obs.StagePrune, obs.StageBind, obs.StageScan, obs.StageMerge),
		fan:   group(obs.StageScatter),
	}
	total := sh.front + sh.cache + sh.scan + sh.fan
	if total == 0 {
		return
	}
	sh = shares{sh.front / total, sh.cache / total, sh.scan / total, sh.fan / total}
	r.note("split of the median traced read: front end (http, parse, plan_cache, pin) %.0f%%, cache %.0f%%, "+
		"scan stages (prune, bind, scan, merge) %.0f%%, scatter-gather %.0f%%",
		100*sh.front, 100*sh.cache, 100*sh.scan, 100*sh.fan)
	if rule == nil {
		return
	}
	verdict := "holds"
	if !rule.holds(sh) {
		verdict = "does NOT hold"
	}
	r.note("intended split (%s) %s", rule.desc, verdict)
}
