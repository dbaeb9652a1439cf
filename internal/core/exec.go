package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"sync"
	"time"

	"astore/internal/agg"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/storage"
)

// runState is the mutable per-execution state of one plan run. It is
// separate from the plan so that a cached, compiled plan can be executed by
// many goroutines concurrently: the plan stays read-only after compilation
// and every execution accumulates timing into its own runState.
type runState struct {
	stats Stats
}

// morsel is one unit of scan work: a local row range [lo, hi) of one
// segment. The engine over-partitions (Workers × PartitionsPerWorker
// morsels, at least one per scan batch) and lets workers pull morsels from
// a queue, which is the paper's load-balancing scheme of allocating more
// logical partitions than physical threads (§5) — now segment-granular, so
// a morsel never straddles segments and zone-map pruning drops whole
// segments before any morsel is enqueued.
type morsel struct {
	si     int  // index into the execution's kept-segment list
	lo, hi int  // local row range within the segment
	whole  bool // whole-segment unit: capture + install its partial
}

// execSeg is one segment admitted to the scan, with its bound state. A
// sealed segment missing from the aggregate cache carries install=true: it
// is scanned as one whole-segment unit so its partial can be captured and
// installed under key.
type execSeg struct {
	sv      *storage.SegView
	st      *segState
	install bool
	key     aggKey
}

// partial is one worker's private aggregation state: either an aggregation
// array or a hash table, never both. Workers also accumulate their own
// timing, merged by the driver (§5: intermediate results are used
// exclusively by the worker itself).
type partial struct {
	arr *agg.ArrayAgg
	h   *agg.HashAgg

	scanNS, aggNS     int64
	scanned, selected int64
	mergeErr          error // first in-worker merge failure (shape mismatch)

	// Reused per-morsel buffers.
	sel   []int32
	mi    []int32
	cells []*agg.Cell
	key   []byte
}

func (pl *plan) newPartial() (*partial, error) {
	p := &partial{key: make([]byte, 4*len(pl.dims))}
	if pl.useArray {
		arr, err := pl.eng.getArray(pl.dimCards, pl.aggKinds)
		if err != nil {
			return nil, err
		}
		p.arr = arr
	} else {
		p.h = agg.NewHashAgg(pl.aggKinds)
	}
	return p, nil
}

// capture snapshots the partial's aggregation state as an immutable
// agg.Partial.
func (p *partial) capture() *agg.Partial {
	if p.arr != nil {
		return p.arr.Capture()
	}
	return p.h.Capture()
}

// absorb folds q's aggregation state, counters and first merge failure
// into p. q's array stays q's; the caller recycles it.
func (p *partial) absorb(q *partial) {
	var err error
	if p.arr != nil {
		err = p.arr.Merge(q.arr)
	} else {
		p.h.Merge(q.h)
	}
	p.mergeErr = cmp.Or(p.mergeErr, q.mergeErr, err)
	p.scanNS += q.scanNS
	p.aggNS += q.aggNS
	p.scanned += q.scanned
	p.selected += q.selected
}

// aggCacheable reports whether this plan's executions go through the
// per-segment aggregate cache: columnar variants only (the row-wise
// baselines exist to measure the uncached scan) and only when the engine's
// cache is enabled.
func (pl *plan) aggCacheable() bool {
	return !pl.variant.rowWise() && pl.eng.aggCache.enabled()
}

// admitSegments applies zone-map pruning over the root's segment views: a
// segment is skipped when any filter proves, from the segment's min/max
// zones, that no row can match. Pruning decisions are per segment and per
// predicate, before any row work (including the row-wise variants).
//
// Surviving sealed segments are then looked up in the engine's aggregate
// cache: a hit returns the stored partial (second return value) and skips
// binding and scanning entirely; a miss is bound and marked install so the
// scan captures its partial. Tail and flat pseudo-segments always bind and
// scan live.
func (pl *plan) admitSegments(segs []storage.SegView, rs *runState) ([]execSeg, []*agg.Partial, error) {
	admitT0 := time.Now()
	var bindNS, cacheNS int64
	useCache := pl.aggCacheable()
	kept := make([]execSeg, 0, len(segs))
	var hits []*agg.Partial
	rs.stats.SegmentsTotal += len(segs)
	for i := range segs {
		sv := &segs[i]
		if sv.N == 0 {
			rs.stats.SegmentsPruned++
			continue
		}
		pruned := false
		for fi := range pl.filters {
			if !pl.filters[fi].mayMatchSegment(sv) {
				pruned = true
				if rs.stats.PruneByFilter == nil {
					rs.stats.PruneByFilter = make(map[string]int)
				}
				rs.stats.PruneByFilter[pl.filters[fi].label]++
				break
			}
		}
		if pruned {
			rs.stats.SegmentsPruned++
			continue
		}
		es := execSeg{sv: sv}
		if useCache && sv.Seg != nil && sv.Sealed {
			cacheT0 := time.Now()
			es.key = aggKey{plan: pl.id, seg: sv.Seg, epoch: sv.Epoch, delGen: sv.DelGen}
			v, ok := pl.eng.aggCache.get(es.key)
			cacheNS += time.Since(cacheT0).Nanoseconds()
			if ok {
				hits = append(hits, v.(*agg.Partial))
				rs.stats.AggCacheHits++
				continue
			}
			rs.stats.AggCacheMisses++
			es.install = true
		} else if sv.Seg == nil || !sv.Sealed {
			rs.stats.TailRows += int64(sv.N)
		}
		bindT0 := time.Now()
		st, err := pl.segStateFor(sv)
		bindNS += time.Since(bindT0).Nanoseconds()
		if err != nil {
			return nil, nil, err
		}
		if st.encoded {
			rs.stats.EncodedSegments++
		}
		es.st = st
		kept = append(kept, es)
	}
	rs.stats.BindNS += bindNS
	rs.stats.CacheNS += cacheNS
	if prune := time.Since(admitT0).Nanoseconds() - bindNS - cacheNS; prune > 0 {
		rs.stats.PruneNS += prune
	}
	return kept, hits, nil
}

// morselCount returns the number of morsels for the scan: enough for the
// over-partitioned parallel schedule, and enough that no morsel exceeds the
// batch-row bound, which is the granularity of cancellation checks.
func (pl *plan) morselCount(totalRows int) int {
	count := pl.opt.Workers * pl.opt.PartitionsPerWorker
	if batches := (totalRows + pl.opt.BatchRows - 1) / pl.opt.BatchRows; batches > count {
		count = batches
	}
	return count
}

// makeMorsels slices every admitted segment into near-equal local row
// ranges, bounded by the batch size.
func (pl *plan) makeMorsels(kept []execSeg) []morsel {
	total := 0
	for _, es := range kept {
		total += es.sv.N
	}
	if total == 0 {
		return nil
	}
	count := pl.morselCount(total)
	chunk := (total + count - 1) / count
	if chunk > pl.opt.BatchRows {
		chunk = pl.opt.BatchRows
	}
	if chunk < 1 {
		chunk = 1
	}
	var ms []morsel
	for si, es := range kept {
		for lo := 0; lo < es.sv.N; lo += chunk {
			hi := lo + chunk
			if hi > es.sv.N {
				hi = es.sv.N
			}
			ms = append(ms, morsel{si: si, lo: lo, hi: hi})
		}
	}
	return ms
}

// collect is the one execution pipeline every run shares — single-node,
// cached, row-wise and shard-partial: admit the segments (zone-map pruning
// and aggregate-cache lookup), schedule the surviving rows as scan units,
// run them on the worker pool, and fold the cached partials of the admitted
// segments into the live state. The caller finishes the returned state:
// exec extracts rows, ExecPartial captures a snapshot.
//
// Aggregate-cache hits contribute their stored partials without any scan;
// sealed misses are scanned as whole-segment units so their partials can
// be captured and installed; tail and flat segments go through the regular
// morsel split. Row-wise variants are never cache-eligible, so they get
// plain morsels and differ only in their per-morsel kernel.
func (pl *plan) collect(ctx context.Context, segs []storage.SegView, rs *runState) (*partial, error) {
	kept, hits, err := pl.admitSegments(segs, rs)
	if err != nil {
		return nil, err
	}
	scan := pl.processMorselColumnar
	if pl.variant.rowWise() {
		scan = pl.processMorselRowWise
	}
	process := func(p *partial, m morsel) {
		if m.whole {
			pl.processSegmentCached(ctx, p, kept[m.si])
			return
		}
		scan(p, kept[m.si], m.lo, m.hi)
	}
	total, err := pl.runParallel(ctx, pl.makeUnits(kept), process, rs)
	if err != nil {
		return nil, err
	}
	if err := pl.mergeParts(total, hits, rs); err != nil {
		return nil, err
	}
	return total, nil
}

// mergeParts folds captured partials — aggregate-cache hits or shard
// snapshots — into a live aggregation state. It is the only place an
// agg.Partial is merged into live state; a shape or kind mismatch fails
// the merge (and recycles the state's array) rather than producing wrong
// rows.
func (pl *plan) mergeParts(total *partial, parts []*agg.Partial, rs *runState) error {
	if len(parts) == 0 {
		return nil
	}
	t0 := time.Now()
	for _, part := range parts {
		if part == nil {
			continue
		}
		var err error
		if total.arr != nil {
			err = part.MergeIntoArray(total.arr)
		} else {
			err = part.MergeIntoHash(total.h)
		}
		if err != nil {
			pl.eng.putArray(total.arr)
			return err
		}
	}
	rs.stats.AggNS += time.Since(t0).Nanoseconds()
	return nil
}

// makeUnits builds the scan work list: one whole-segment unit per
// cache-install segment (its partial must be captured in isolation), then
// the regular morsel split over the live (tail) segments.
func (pl *plan) makeUnits(kept []execSeg) []morsel {
	var live []execSeg
	liveIdx := make([]int, 0, len(kept))
	var units []morsel
	for si, es := range kept {
		if es.install {
			units = append(units, morsel{si: si, lo: 0, hi: es.sv.N, whole: true})
			continue
		}
		live = append(live, es)
		liveIdx = append(liveIdx, si)
	}
	for _, m := range pl.makeMorsels(live) {
		m.si = liveIdx[m.si]
		units = append(units, m)
	}
	return units
}

// processSegmentCached scans one sealed cache-miss segment into a private
// scratch state, captures and installs the immutable partial, and folds
// the scratch into the worker's partial. Cancellation is honored between
// batches; a cancelled scan installs nothing (the run is abandoned).
func (pl *plan) processSegmentCached(ctx context.Context, p *partial, es execSeg) {
	scratch, err := pl.newPartial()
	if err != nil {
		// Array pool exhaustion is impossible mid-run (the shape already
		// exists); be safe and scan uncached.
		pl.processMorselColumnar(p, es, 0, es.sv.N)
		return
	}
	complete := true
	done := ctx.Done()
	for lo := 0; lo < es.sv.N; lo += pl.opt.BatchRows {
		if done != nil && ctx.Err() != nil {
			complete = false
			break
		}
		hi := lo + pl.opt.BatchRows
		if hi > es.sv.N {
			hi = es.sv.N
		}
		pl.processMorselColumnar(scratch, es, lo, hi)
	}
	t0 := time.Now()
	if complete {
		part := scratch.capture()
		pl.eng.aggCache.put(es.key, part, part.Bytes())
	}
	p.absorb(scratch)
	p.aggNS += time.Since(t0).Nanoseconds()
	pl.eng.putArray(scratch.arr)
}

// runParallel drives workers over the morsel queue and merges their
// partials into one state, which it always returns on success (an empty
// queue yields an empty state). A single worker runs inline. Cancellation
// is checked between morsels: a cancelled context makes every worker stop
// at its next morsel boundary and the run returns ctx.Err() with all
// pooled aggregation arrays returned.
func (pl *plan) runParallel(ctx context.Context, morsels []morsel, process func(*partial, morsel), rs *runState) (*partial, error) {
	workers := min(pl.opt.Workers, len(morsels))
	if workers < 1 {
		workers = 1
	}
	partials := make([]*partial, workers)
	for w := range partials {
		p, err := pl.newPartial()
		if err != nil {
			for _, prev := range partials[:w] {
				pl.eng.putArray(prev.arr)
			}
			return nil, err
		}
		partials[w] = p
	}

	queue := make(chan morsel, len(morsels))
	for _, m := range morsels {
		queue <- m
	}
	close(queue)
	done := ctx.Done()
	work := func(p *partial) {
		for m := range queue {
			if done != nil && ctx.Err() != nil {
				return
			}
			process(p, m)
		}
	}
	if workers == 1 {
		work(partials[0])
	} else {
		var wg sync.WaitGroup
		for _, p := range partials {
			wg.Add(1)
			go func(p *partial) {
				defer wg.Done()
				work(p)
			}(p)
		}
		wg.Wait()
	}

	if done != nil {
		if err := ctx.Err(); err != nil {
			for _, p := range partials {
				pl.eng.putArray(p.arr)
			}
			return nil, err
		}
	}

	// Merge worker partials into the first one; merged arrays go back to
	// the engine's pool.
	total := partials[0]
	for _, p := range partials[1:] {
		total.absorb(p)
		pl.eng.putArray(p.arr)
	}
	if total.mergeErr != nil {
		pl.eng.putArray(total.arr)
		return nil, total.mergeErr
	}
	// Attribute per-phase time as wall-clock estimate: sum across workers
	// divided by the worker count.
	rs.stats.ScanNS += total.scanNS / int64(workers)
	rs.stats.AggNS += total.aggNS / int64(workers)
	rs.stats.RowsScanned += total.scanned
	rs.stats.RowsSelected += total.selected
	return total, nil
}

// processMorselColumnar runs phases 2 and 3 for one morsel: selection-vector
// refinement, measure-index generation, and measure aggregation. All row
// indexes are segment-local; the segment's bound state supplies the arrays.
func (pl *plan) processMorselColumnar(p *partial, es execSeg, lo, hi int) {
	t0 := time.Now()
	p.scanned += int64(hi - lo)
	st := es.st

	// Phase 2a: scan-and-filter with a shrinking selection vector.
	sel := p.sel[:0]
	if del := es.sv.Del; del == nil {
		for r := lo; r < hi; r++ {
			sel = append(sel, int32(r))
		}
	} else {
		for r := lo; r < hi; r++ {
			if !del.Get(r) {
				sel = append(sel, int32(r))
			}
		}
	}
	for i := range st.filters {
		if len(sel) == 0 {
			break
		}
		f := &st.filters[i]
		if f.filt != nil {
			sel = f.filt(sel)
		} else {
			sel = filterProbe(f, sel)
		}
	}

	// Phase 2b (array backend): grouping — compute the measure index. For
	// the hash backend, grouping (bucket location) is aggregation work and
	// is accounted to phase 3, matching the paper's Fig. 10 stage split.
	if pl.useArray {
		sel = pl.groupArray(p, st, sel)
		p.sel = sel
		p.selected += int64(len(sel))
		p.scanNS += time.Since(t0).Nanoseconds()

		t1 := time.Now()
		aggregateArray(p, st, sel)
		p.aggNS += time.Since(t1).Nanoseconds()
		return
	}
	p.scanNS += time.Since(t0).Nanoseconds()

	// Phase 3 (hash backend): grouping and aggregation.
	t1 := time.Now()
	sel = pl.groupHash(p, st, sel)
	p.sel = sel
	p.selected += int64(len(sel))
	aggregateHash(p, st, sel)
	p.aggNS += time.Since(t1).Nanoseconds()
}

// filterProbe refines the selection vector through one probe filter,
// following the AIR chain and testing the predicate vector bit (or the
// direct matcher).
func filterProbe(f *boundFilter, sel []int32) []int32 {
	out := sel[:0]
	if f.runEnd != nil {
		// Run-at-a-time kernel over an RLE FK chunk: verdicts were
		// computed per run at bind time; the (ascending) selection vector
		// is walked with a forward-only run cursor, local to this call so
		// cached bindings stay safe across concurrent workers.
		end, pass := f.runEnd, f.runPass
		ri := 0
		for _, r := range sel {
			for end[ri] <= r {
				ri++
			}
			if pass[ri] {
				out = append(out, r)
			}
		}
		return out
	}
	if f.probe.vec != nil && len(f.probe.dimFKs) == 0 {
		fk := f.fk0
		vec := f.probe.vec
		for _, r := range sel {
			if vec.Get(int(fk[r])) {
				out = append(out, r)
			}
		}
		return out
	}
	for _, r := range sel {
		if f.keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// groupArray fills the measure index with flat aggregation-array cell
// indexes, processing one grouping column at a time (column-wise grouping,
// Fig. 6). Rows whose group vector entry is null are dropped from the
// selection vector.
func (pl *plan) groupArray(p *partial, st *segState, sel []int32) []int32 {
	if cap(p.mi) < len(sel) {
		p.mi = make([]int32, len(sel))
	}
	mi := p.mi[:len(sel)]
	for j := range mi {
		mi[j] = 0
	}
	mult := p.arr.Mult()
	dead := false
	for k := range st.dims {
		dead = accumulateDim(&st.dims[k], sel, mi, mult[k]) || dead
	}
	if dead {
		keep := sel[:0]
		km := mi[:0]
		for j, f := range mi {
			if f >= 0 {
				keep = append(keep, sel[j])
				km = append(km, f)
			}
		}
		sel = keep
		mi = km
	}
	p.mi = mi
	for _, f := range mi {
		p.arr.AddRow(f)
	}
	return sel
}

// accumulateDim folds one grouping column's dense ids into the measure
// index. Returns true if any row hit a null group (marked -1).
func accumulateDim(b *boundDim, sel []int32, mi []int32, mult int32) bool {
	d := b.d
	dead := false
	switch d.kind {
	case gdLeafVec:
		if len(d.dimFKs) == 0 {
			fk := b.fk0
			vec := d.vec
			for j, r := range sel {
				if mi[j] < 0 {
					continue
				}
				id := vec[fk[r]]
				if id < 0 {
					mi[j] = -1
					dead = true
					continue
				}
				mi[j] += id * mult
			}
			return dead
		}
		for j, r := range sel {
			if mi[j] < 0 {
				continue
			}
			x := b.fk0[r]
			for _, fk := range d.dimFKs {
				x = fk[x]
			}
			id := d.vec[x]
			if id < 0 {
				mi[j] = -1
				dead = true
				continue
			}
			mi[j] += id * mult
		}
	case gdRootDict:
		if b.rleEnd != nil {
			// Run-cursor variant: the cursor advances for every selected
			// row (sel is ascending), independent of the null check.
			codes, end := b.rleCodes, b.rleEnd
			ri := 0
			for j, r := range sel {
				for end[ri] <= r {
					ri++
				}
				if mi[j] >= 0 {
					mi[j] += codes[ri] * mult
				}
			}
			return false
		}
		codes := b.codes
		for j, r := range sel {
			if mi[j] >= 0 {
				mi[j] += codes[r] * mult
			}
		}
	default: // gdRootNum
		switch {
		case b.i32 != nil:
			v := b.i32
			base := int32(d.base)
			for j, r := range sel {
				if mi[j] >= 0 {
					mi[j] += (v[r] - base) * mult
				}
			}
		case b.i64 != nil:
			v := b.i64
			for j, r := range sel {
				if mi[j] >= 0 {
					mi[j] += int32(v[r]-d.base) * mult
				}
			}
		default:
			v := b.f64
			for j, r := range sel {
				if mi[j] >= 0 {
					mi[j] += int32(int64(v[r])-d.base) * mult
				}
			}
		}
	}
	return dead
}

// groupHash assigns each selected row its hash-aggregation cell, keyed by
// the packed dense group ids (stable across workers, so partials merge).
func (pl *plan) groupHash(p *partial, st *segState, sel []int32) []int32 {
	if cap(p.cells) < len(sel) {
		p.cells = make([]*agg.Cell, len(sel))
	}
	cells := p.cells[:len(sel)]
	key := p.key
	out := sel[:0]
	kept := cells[:0]
	for _, r := range sel {
		ok := true
		for k := range st.dims {
			id := st.dims[k].id(r)
			if id < 0 {
				ok = false
				break
			}
			binary.LittleEndian.PutUint32(key[4*k:], uint32(id))
		}
		if !ok {
			continue
		}
		c := p.h.Upsert(key)
		c.Count++
		out = append(out, r)
		kept = append(kept, c)
	}
	p.cells = cells[:len(kept)]
	copy(p.cells, kept)
	return out
}

// aggregateArray is phase 3 over the aggregation array: each measure column
// is scanned only at the positions recorded in the measure index.
func aggregateArray(p *partial, st *segState, sel []int32) {
	mi := p.mi
	for k := range st.aggs {
		ba := &st.aggs[k]
		if ba.ap.agg.Expr == nil {
			continue // COUNT(*): counts were maintained in groupArray
		}
		vals := p.arr.Vals(k)
		switch ba.ap.kind {
		case expr.Sum, expr.Avg:
			if ba.sumLoop(vals, sel, mi) {
				continue
			}
			ev := ba.eval
			for j, r := range sel {
				vals[mi[j]] += ev(r)
			}
		case expr.Min:
			ev := ba.eval
			for j, r := range sel {
				if v := ev(r); v < vals[mi[j]] {
					vals[mi[j]] = v
				}
			}
		case expr.Max:
			ev := ba.eval
			for j, r := range sel {
				if v := ev(r); v > vals[mi[j]] {
					vals[mi[j]] = v
				}
			}
		case expr.Count:
			// COUNT(expr) without nulls equals COUNT(*).
		}
	}
}

// sumLoop runs the recognized dense fast path for Sum/Avg accumulation,
// returning false when the expression shape or column types are not
// specialized.
func (ba *boundAgg) sumLoop(vals []float64, sel, mi []int32) bool {
	if !ba.fast {
		return false
	}
	switch ba.ap.form {
	case expr.FCol:
		switch {
		case ba.aRLEVals != nil:
			// Run-cursor kernel over an RLE measure chunk: one pre-widened
			// value per run, cursor local to this call.
			a, end := ba.aRLEVals, ba.aRLEEnd
			ri := 0
			for j, r := range sel {
				for end[ri] <= r {
					ri++
				}
				vals[mi[j]] += a[ri]
			}
		case ba.aI64 != nil:
			a := ba.aI64
			for j, r := range sel {
				vals[mi[j]] += float64(a[r])
			}
		case ba.aI32 != nil:
			a := ba.aI32
			for j, r := range sel {
				vals[mi[j]] += float64(a[r])
			}
		case ba.aF64 != nil:
			a := ba.aF64
			for j, r := range sel {
				vals[mi[j]] += a[r]
			}
		default:
			return false
		}
	case expr.FMulCols:
		switch {
		case ba.aI64 != nil && ba.bI32 != nil:
			a, b := ba.aI64, ba.bI32
			for j, r := range sel {
				vals[mi[j]] += float64(a[r] * int64(b[r]))
			}
		case ba.aI64 != nil && ba.bI64 != nil:
			a, b := ba.aI64, ba.bI64
			for j, r := range sel {
				vals[mi[j]] += float64(a[r] * b[r])
			}
		case ba.aI32 != nil && ba.bI32 != nil:
			a, b := ba.aI32, ba.bI32
			for j, r := range sel {
				vals[mi[j]] += float64(int64(a[r]) * int64(b[r]))
			}
		case ba.aF64 != nil && ba.bF64 != nil:
			a, b := ba.aF64, ba.bF64
			for j, r := range sel {
				vals[mi[j]] += a[r] * b[r]
			}
		default:
			return false
		}
	case expr.FSubCols:
		switch {
		case ba.aI64 != nil && ba.bI64 != nil:
			a, b := ba.aI64, ba.bI64
			for j, r := range sel {
				vals[mi[j]] += float64(a[r] - b[r])
			}
		case ba.aI32 != nil && ba.bI32 != nil:
			a, b := ba.aI32, ba.bI32
			for j, r := range sel {
				vals[mi[j]] += float64(a[r] - b[r])
			}
		default:
			return false
		}
	case expr.FMulOneMinus:
		switch {
		case ba.aF64 != nil && ba.bF64 != nil:
			a, b := ba.aF64, ba.bF64
			for j, r := range sel {
				vals[mi[j]] += a[r] * (1 - b[r])
			}
		case ba.aI64 != nil && ba.bF64 != nil:
			a, b := ba.aI64, ba.bF64
			for j, r := range sel {
				vals[mi[j]] += float64(a[r]) * (1 - b[r])
			}
		default:
			return false
		}
	default:
		return false
	}
	return true
}

// aggregateHash is phase 3 over the hash backend.
func aggregateHash(p *partial, st *segState, sel []int32) {
	kinds := p.h.Kinds()
	for k := range st.aggs {
		ba := &st.aggs[k]
		if ba.ap.agg.Expr == nil {
			continue
		}
		ev := ba.eval
		cells := p.cells
		switch ba.ap.kind {
		case expr.Sum, expr.Avg:
			for j, r := range sel {
				cells[j].Vals[k] += ev(r)
			}
		default:
			for j, r := range sel {
				cells[j].Update(kinds, k, ev(r))
			}
		}
	}
}

// extract converts the merged aggregation state into an ordered result.
func (pl *plan) extract(total *partial, rs *runState) (*query.Result, error) {
	t0 := time.Now()
	res := &query.Result{
		GroupCols: append([]string(nil), pl.q.GroupBy...),
		AggNames:  make([]string, len(pl.aggs)),
	}
	for k, ap := range pl.aggs {
		res.AggNames[k] = ap.agg.As
	}

	if total.arr != nil {
		for _, g := range total.arr.Extract() {
			keys := make([]query.Value, len(pl.dims))
			for k, d := range pl.dims {
				keys[k] = d.decode(g.Ids[k])
			}
			res.Rows = append(res.Rows, query.Row{Keys: keys, Aggs: g.Vals})
		}
		pl.eng.putArray(total.arr)
		total.arr = nil
	} else {
		for _, c := range total.h.Extract() {
			key := c.Key()
			keys := make([]query.Value, len(pl.dims))
			for k, d := range pl.dims {
				id := int32(binary.LittleEndian.Uint32([]byte(key[4*k:])))
				keys[k] = d.decode(id)
			}
			res.Rows = append(res.Rows, query.Row{Keys: keys, Aggs: c.Vals})
		}
	}
	rs.stats.Groups = len(res.Rows)

	if err := res.Sort(pl.q.OrderBy); err != nil {
		return nil, err
	}
	res.Truncate(pl.q.Limit)
	rs.stats.AggNS += time.Since(t0).Nanoseconds()
	return res, nil
}
