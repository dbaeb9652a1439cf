package core

import (
	"context"
	"fmt"
	"time"

	"astore/internal/agg"
	"astore/internal/query"
	"astore/internal/storage"
)

// Partial execution is the engine half of scatter-gather sharding: a worker
// executes a compiled plan over a subset of the root's segments and exports
// the raw aggregation state (an agg.Partial) instead of finalized rows; the
// coordinator merges the per-shard snapshots and finalizes once. Because
// partials keep raw accumulators (Avg as sum+count, Min/Max as extrema),
// merge(partial(A), partial(B)) == partial(A ∪ B) holds for any disjoint
// segment split, so the distributed result is identical to a single-node
// scan — the same algebra the per-segment aggregate cache relies on.

// ExecPartial executes a compiled plan over the given subset of the view's
// root segment views and returns the captured aggregation state. The subset
// must come from the view the plan is fresh in (v.RootSegments(), possibly
// filtered); admission still applies zone-map pruning and the per-segment
// aggregate cache to the subset. It is exec with a capture in place of
// the extraction. Only columnar variants can export their state; the
// row-wise baselines produce finalized rows directly.
func (e *Engine) ExecPartial(ctx context.Context, v *View, c *Compiled, segs []storage.SegView, stats *Stats) (*agg.Partial, error) {
	pl := c.pl
	if pl.variant.rowWise() {
		return nil, fmt.Errorf("core: partial execution requires a columnar variant (plan compiled as %s)", pl.variant)
	}
	var snap *agg.Partial
	err := pl.run(ctx, segs, stats, func(total *partial, rs *runState) error {
		t0 := time.Now()
		snap = total.capture()
		pl.eng.putArray(total.arr)
		rs.stats.AggNS += time.Since(t0).Nanoseconds()
		rs.stats.Groups = snap.Cells()
		return nil
	})
	return snap, err
}

// MergePartials merges per-shard snapshots of one compiled plan and
// finalizes them into an ordered result — the coordinator half of
// scatter-gather execution. Every snapshot's form and aggregate kinds are
// validated against the plan's state; a mismatch (a worker compiled a
// different plan shape, or a corrupted wire decode slipped through) fails
// the merge rather than producing wrong rows. The caller must hold a view
// in which c is fresh, so the dimension decode the extraction uses matches
// the group ids the workers produced.
func (e *Engine) MergePartials(c *Compiled, parts []*agg.Partial, stats *Stats) (*query.Result, error) {
	pl := c.pl
	if pl.variant.rowWise() {
		return nil, fmt.Errorf("core: partial merge requires a columnar variant (plan compiled as %s)", pl.variant)
	}
	rs := &runState{stats: pl.stats}
	total, err := pl.newPartial(scanBufs{})
	if err != nil {
		return nil, err
	}
	if err := pl.mergeParts(total, parts, rs); err != nil {
		return nil, err
	}
	res, err := pl.extract(total, rs)
	if err != nil {
		return nil, err
	}
	if stats != nil {
		*stats = rs.stats
	}
	return res, nil
}
