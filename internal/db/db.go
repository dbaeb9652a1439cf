// Package db is the database-level serving layer of A-Store: it turns the
// per-fact-table core.Engine into an embeddable database handle.
//
// A DB is opened over a storage.Database catalog. Every fact table — a
// table no other table references — gets an engine over the star/snowflake
// schema reachable from it, so the catalog behaves as a set of virtual
// universal tables served through one entry point.
//
// The serving loop is built from three mechanisms:
//
//   - Routing. A query references columns of exactly one fact table's
//     reachable schema (or names its fact table in the SQL FROM clause);
//     the DB resolves the query once and routes it to that engine.
//   - Plan caching. Prepare compiles the query into a core.Compiled plan —
//     predicate vectors, group vectors, evaluators — and caches it keyed by
//     the query's rendered SQL signature. Re-execution skips planning
//     entirely while the underlying tables are unmodified; table version
//     counters detect staleness, and stale plans are recompiled against the
//     current snapshot.
//   - Snapshot-isolated execution. Every execution pins a View (a
//     copy-on-write snapshot of the fact table and its dimensions) for its
//     duration, so writers may append, update, and delete concurrently
//     while every reader observes one consistent database state. Pins are
//     released on every exit path, including cancellation.
//
// Execution honors context cancellation at scan-batch boundaries in both
// the columnar and the row-wise paths.
package db

import (
	"container/list"
	"context"
	"fmt"
	"maps"
	"strings"
	"sync"

	"astore/internal/core"
	"astore/internal/expr"
	"astore/internal/obs"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
)

// DefaultPlanCacheCap is the default bound on cached compiled plans.
const DefaultPlanCacheCap = 256

// DB is a database handle serving SPJGA queries over every fact table of a
// catalog. It is safe for concurrent use; writers may mutate the catalog's
// tables through the storage API while queries run.
type DB struct {
	catalog *storage.Database
	opt     core.Options
	facts   map[string]*core.Engine
	order   []string // fact-table names in catalog order

	mu    sync.Mutex
	cache map[cacheKey]*list.Element // guarded by mu
	lru   *list.List                 // guarded by mu; of *cacheEntry, most recently used first
	cap   int                        // guarded by mu
	stats Stats                      // guarded by mu
}

type cacheKey struct{ fact, sig string }

type cacheEntry struct {
	key cacheKey
	c   *core.Compiled
}

// Stats are cumulative serving counters of a DB. GET /v1/stats serves
// them as its "db" block under these JSON keys.
type Stats struct {
	// Prepares counts Prepare/PrepareOn/PrepareSQL calls.
	Prepares int64 `json:"prepares"`
	// Execs counts query executions (Prepared.Exec and DB.Run).
	Execs int64 `json:"execs"`
	// PlanHits counts executions that reused a cached plan unchanged.
	PlanHits int64 `json:"plan_hits"`
	// PlanMisses counts compilations because no cached plan existed.
	PlanMisses int64 `json:"plan_misses"`
	// PlanStale counts recompilations because table versions moved under a
	// cached plan.
	PlanStale int64 `json:"plan_stale"`
	// PlanEvictions counts cached plans dropped because the cache exceeded
	// its capacity (stale replacements do not count).
	PlanEvictions int64 `json:"plan_evictions"`
	// SegmentsTotal counts root segments considered across executions.
	SegmentsTotal int64 `json:"segments_total"`
	// SegmentsPruned counts root segments skipped by zone-map pruning
	// across executions (before any row work).
	SegmentsPruned int64 `json:"segments_pruned"`
	// RowsScanned counts root rows considered across executions.
	RowsScanned int64 `json:"rows_scanned"`
	// RowsSelected counts root rows surviving all predicates across
	// executions.
	RowsSelected int64 `json:"rows_selected"`
	// EncodedSegments counts admitted root segments containing at least
	// one compressed (RLE/FoR) chunk across executions.
	EncodedSegments int64 `json:"encoded_segments"`
	// PruneByFilter attributes zone-map segment prunes to the filter that
	// proved them, keyed by the filter's display label (predicate text for
	// root filters, "probe <table> via <fk>" for dimension probes),
	// cumulative across executions. At most maxPruneLabels labels are kept;
	// prunes by later labels count under "other". Omitted until the first
	// attributed prune.
	PruneByFilter map[string]int64 `json:"prune_by_filter,omitempty"`
	// TailRows counts rows scanned live from mutable tails and flat roots
	// across executions — the work the segment aggregate cache can never
	// absorb.
	TailRows int64 `json:"tail_rows"`

	// Segment aggregate cache counters, summed over the DB's engines
	// (cumulative for hits/misses/evictions, point-in-time for
	// bytes/entries). See core.Options.AggCacheBytes.
	AggCacheHits      int64 `json:"agg_cache_hits"`
	AggCacheMisses    int64 `json:"agg_cache_misses"`
	AggCacheEvictions int64 `json:"agg_cache_evictions"`
	AggCacheBytes     int64 `json:"agg_cache_bytes"`
	AggCacheEntries   int64 `json:"agg_cache_entries"`
	// Sealed-segment binding cache counters (decode buffers and probe
	// verdicts, byte-accounted LRU), summed over the DB's engines.
	BindCacheHits      int64 `json:"bind_cache_hits"`
	BindCacheMisses    int64 `json:"bind_cache_misses"`
	BindCacheEvictions int64 `json:"bind_cache_evictions"`
	BindCacheBytes     int64 `json:"bind_cache_bytes"`
	BindCacheEntries   int64 `json:"bind_cache_entries"`
}

// Open builds a DB over the catalog: every fact table (a table referenced
// by no other table) is registered with an engine over its reachable
// star/snowflake schema. The schema — tables, columns, foreign keys — must
// not change after Open; table contents may.
func Open(catalog *storage.Database, opt core.Options) (*DB, error) {
	if catalog == nil {
		return nil, fmt.Errorf("db: nil catalog")
	}
	referenced := make(map[*storage.Table]bool)
	for _, t := range catalog.Tables() {
		for _, ref := range t.FKs() {
			if ref != t {
				referenced[ref] = true
			}
		}
	}
	d := &DB{
		catalog: catalog,
		opt:     opt,
		facts:   make(map[string]*core.Engine),
		cache:   make(map[cacheKey]*list.Element),
		lru:     list.New(),
		cap:     DefaultPlanCacheCap,
	}
	for _, t := range catalog.Tables() {
		if referenced[t] {
			continue
		}
		// Segment fact tables when asked: sealed segments + mutable tail
		// give cheap snapshots, zone-map pruning, and append-stable plans.
		// Dimensions stay flat (AIR chain lookups need flat arrays).
		if opt.SegmentRows > 0 && !t.Segmented() {
			if err := t.SetSegmentTarget(opt.SegmentRows); err != nil {
				return nil, fmt.Errorf("db: fact table %s: %w", t.Name, err)
			}
		}
		if t.Segmented() {
			// Sort keys apply per table: keys a fact table does not have
			// are dropped (a shared key list may span heterogeneous facts).
			if len(opt.SortKeys) > 0 {
				var keys []string
				for _, k := range opt.SortKeys {
					// ColumnType, not Column: segmented tables keep their
					// schema in colTypes and report nil flat columns.
					if _, ok := t.ColumnType(k); ok {
						keys = append(keys, k)
					}
				}
				if len(keys) > 0 {
					if err := t.SetSortKeys(keys...); err != nil {
						return nil, fmt.Errorf("db: fact table %s: %w", t.Name, err)
					}
				}
			}
			if opt.SealedEncodings {
				if err := t.SetSealedEncodings(true); err != nil {
					return nil, fmt.Errorf("db: fact table %s: %w", t.Name, err)
				}
			}
		}
		eng, err := core.New(t, opt)
		if err != nil {
			return nil, fmt.Errorf("db: fact table %s: %w", t.Name, err)
		}
		d.facts[t.Name] = eng
		d.order = append(d.order, t.Name)
	}
	if len(d.order) == 0 {
		return nil, fmt.Errorf("db: catalog has no fact table (every table is referenced by another)")
	}
	return d, nil
}

// Facts returns the registered fact-table names, in catalog order.
func (d *DB) Facts() []string { return append([]string(nil), d.order...) }

// Catalog returns the catalog the DB serves. Callers may mutate table
// contents through the storage API (queries stay snapshot-isolated) but
// must not change the schema.
func (d *DB) Catalog() *storage.Database { return d.catalog }

// Engine returns the engine serving the named fact table, or nil. It gives
// access to the schema graph and Explain; queries should go through
// Prepare/Run, which add routing, plan caching, and snapshot isolation.
func (d *DB) Engine(fact string) *core.Engine { return d.facts[fact] }

// SetPlanCacheCap bounds the number of cached compiled plans (minimum 1).
func (d *DB) SetPlanCacheCap(n int) {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cap = n
	for d.lru.Len() > d.cap {
		d.evictOldestLocked()
	}
}

// Stats returns a copy of the cumulative serving counters. Segment cache
// counters are read from the engines at call time, so they also reflect
// executions that bypassed the DB layer (direct Engine use).
func (d *DB) Stats() Stats {
	d.mu.Lock()
	s := d.stats
	s.PruneByFilter = maps.Clone(d.stats.PruneByFilter)
	d.mu.Unlock()
	for _, name := range d.order {
		cs := d.facts[name].CacheStats()
		s.AggCacheHits += cs.AggHits
		s.AggCacheMisses += cs.AggMisses
		s.AggCacheEvictions += cs.AggEvictions
		s.AggCacheBytes += cs.AggBytes
		s.AggCacheEntries += cs.AggEntries
		s.BindCacheHits += cs.BindHits
		s.BindCacheMisses += cs.BindMisses
		s.BindCacheEvictions += cs.BindEvictions
		s.BindCacheBytes += cs.BindBytes
		s.BindCacheEntries += cs.BindEntries
	}
	return s
}

// referencedCols lists every column name a query mentions, in a
// deterministic order: predicates, grouping columns, measure expressions.
func referencedCols(q *query.Query) []string {
	var cols []string
	seen := make(map[string]bool)
	add := func(c string) {
		if !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	for _, p := range q.Preds {
		add(p.Col)
	}
	for _, g := range q.GroupBy {
		add(g)
	}
	for _, a := range q.Aggs {
		if a.Expr != nil {
			for _, c := range expr.Cols(a.Expr) {
				add(c)
			}
		}
	}
	return cols
}

// route finds the unique fact table whose reachable schema resolves every
// column the query references.
func (d *DB) route(q *query.Query) (string, error) {
	cols := referencedCols(q)
	var matches []string
	for _, name := range d.order {
		g := d.facts[name].Graph()
		ok := true
		for _, c := range cols {
			if _, err := g.Resolve(c); err != nil {
				ok = false
				break
			}
		}
		if ok {
			matches = append(matches, name)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return "", fmt.Errorf("db: query %s: no fact table resolves columns %v (facts: %v)",
			q.Name, cols, d.order)
	default:
		return "", fmt.Errorf("db: query %s: columns resolve on multiple fact tables %v; route explicitly with PrepareOn or a SQL FROM clause",
			q.Name, matches)
	}
}

// routeFact validates an explicitly named fact table (case-insensitive).
func (d *DB) routeFact(fact string) (string, error) {
	if _, ok := d.facts[fact]; ok {
		return fact, nil
	}
	for _, name := range d.order {
		if strings.EqualFold(name, fact) {
			return name, nil
		}
	}
	return "", fmt.Errorf("db: no fact table %q (facts: %v)", fact, d.order)
}

// compiled returns a plan for (fact, sig) that is fresh in view: a cache
// hit when versions match, otherwise a fresh compilation that replaces the
// cached entry. The caller must hold the view for the whole execution. The
// second result reports whether the plan came from the cache unchanged.
func (d *DB) compiled(fact, sig string, q *query.Query, view *core.View) (*core.Compiled, bool, error) {
	key := cacheKey{fact: fact, sig: sig}

	d.mu.Lock()
	if el, ok := d.cache[key]; ok {
		entry := el.Value.(*cacheEntry)
		if entry.c.FreshIn(view) {
			d.lru.MoveToFront(el)
			d.stats.PlanHits++
			d.mu.Unlock()
			return entry.c, true, nil
		}
		// Stale: drop it; the recompilation below replaces it.
		d.lru.Remove(el)
		delete(d.cache, key)
		d.stats.PlanStale++
	} else {
		d.stats.PlanMisses++
	}
	d.mu.Unlock()

	// Compile outside the lock: planning builds predicate and group
	// vectors and may take milliseconds on large dimensions. Two racing
	// executions may both compile; the later store wins, both plans are
	// valid for their views.
	c, err := view.Compile(q)
	if err != nil {
		return nil, false, err
	}

	d.mu.Lock()
	if el, ok := d.cache[key]; ok {
		d.lru.Remove(el)
		delete(d.cache, key)
	}
	d.cache[key] = d.lru.PushFront(&cacheEntry{key: key, c: c})
	for d.lru.Len() > d.cap {
		d.evictOldestLocked()
	}
	d.mu.Unlock()
	return c, false, nil
}

func (d *DB) evictOldestLocked() {
	el := d.lru.Back()
	if el == nil {
		return
	}
	d.lru.Remove(el)
	delete(d.cache, el.Value.(*cacheEntry).key)
	d.stats.PlanEvictions++
}

// Prepare resolves, routes, and compiles a query for repeated execution.
// The compiled plan lands in the DB's plan cache, shared with every other
// Prepared statement and RunSQL call of the same signature.
func (d *DB) Prepare(q *query.Query) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	fact, err := d.route(q)
	if err != nil {
		return nil, err
	}
	return d.prepareOn(fact, q)
}

// PrepareOn is Prepare with explicit routing to the named fact table.
func (d *DB) PrepareOn(fact string, q *query.Query) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	name, err := d.routeFact(fact)
	if err != nil {
		return nil, err
	}
	return d.prepareOn(name, q)
}

// PrepareSQL parses one SPJGA SELECT statement and prepares it. Routing
// uses the FROM clause when it names a registered fact table, and falls
// back to column resolution otherwise (FROM clauses listing only dimension
// tables are legal SQL for the universal table).
func (d *DB) PrepareSQL(text string) (*Prepared, error) {
	st, err := sql.ParseStatement(text)
	if err != nil {
		return nil, err
	}
	var named []string
	seen := make(map[string]bool)
	for _, tn := range st.Tables {
		if name, err := d.routeFact(tn); err == nil && !seen[name] {
			seen[name] = true
			named = append(named, name)
		}
	}
	switch len(named) {
	case 1:
		return d.prepareOn(named[0], st.Query)
	case 0:
		return d.Prepare(st.Query)
	default:
		return nil, fmt.Errorf("db: FROM clause names multiple fact tables %v", named)
	}
}

// prepareOn compiles the routed query once (against a transient snapshot
// view) so that schema errors surface at prepare time and the first Exec
// already hits the plan cache.
func (d *DB) prepareOn(fact string, q *query.Query) (*Prepared, error) {
	p := &Prepared{db: d, eng: d.facts[fact], fact: fact, q: q, sig: sql.Render(q)}
	view, err := p.eng.Acquire()
	if err != nil {
		return nil, err
	}
	defer view.Release()
	if _, _, err := d.compiled(p.fact, p.sig, p.q, view); err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.stats.Prepares++
	d.mu.Unlock()
	return p, nil
}

// Run executes a query once, cold: routing, schema resolution, and
// planning all run on this call and the plan cache is not consulted. Use
// Prepare (or RunSQL, which prepares internally) when the query repeats.
// Execution is snapshot-isolated and honors ctx cancellation.
func (d *DB) Run(ctx context.Context, q *query.Query) (*query.Result, error) {
	return d.RunStats(ctx, q, nil)
}

// RunStats is Run filling per-phase engine stats when stats is non-nil.
func (d *DB) RunStats(ctx context.Context, q *query.Query, stats *core.Stats) (*query.Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	fact, err := d.route(q)
	if err != nil {
		return nil, err
	}
	eng := d.facts[fact]
	// Run bypasses the plan cache by design; a cold compile is a miss.
	cold := func(view *core.View) (*core.Compiled, bool, error) {
		c, err := view.Compile(q)
		return c, false, err
	}
	var res *query.Result
	err = d.withPlan(ctx, obs.TraceFrom(ctx), eng, cold, func(view *core.View, c *core.Compiled) (err error) {
		res, err = d.execCounted(ctx, eng, view, c, stats)
		return err
	})
	return res, err
}

// withPlan is the DB's one pin + compile path: it fails fast on a
// cancelled ctx, pins a view of eng, compiles under it (compile reports
// whether the plan came from the cache unchanged; it may also veto the
// pin), and runs fn while the view stays pinned. The pin is released on
// every path. A non-nil tr receives the pin and plan_cache spans.
func (d *DB) withPlan(ctx context.Context, tr *obs.Trace, eng *core.Engine,
	compile func(*core.View) (*core.Compiled, bool, error), fn func(*core.View, *core.Compiled) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var sp obs.SpanID
	if tr != nil {
		sp = tr.Start(tr.Root(), obs.StagePin)
	}
	view, err := eng.Acquire()
	if tr != nil {
		tr.End(sp)
	}
	if err != nil {
		return err
	}
	defer view.Release()
	if tr != nil {
		sp = tr.Start(tr.Root(), obs.StagePlanCache)
	}
	c, hit, err := compile(view)
	if tr != nil {
		tr.SetHit(sp, hit)
		tr.End(sp)
	}
	if err != nil {
		return err
	}
	return fn(view, c)
}

// execCounted counts one execution and runs a compiled plan under its
// view, folding the run's segment-pruning counters into the DB's
// cumulative stats.
func (d *DB) execCounted(ctx context.Context, eng *core.Engine, view *core.View, c *core.Compiled, stats *core.Stats) (*query.Result, error) {
	d.mu.Lock()
	d.stats.Execs++
	d.mu.Unlock()
	var local core.Stats
	if stats == nil {
		stats = &local
	}
	res, err := eng.Exec(ctx, view, c, stats)
	if err == nil {
		d.mu.Lock()
		d.foldStatsLocked(stats)
		d.mu.Unlock()
	}
	return res, err
}

// RunSQL parses, prepares (hitting the plan cache), and executes one SQL
// statement.
func (d *DB) RunSQL(ctx context.Context, text string) (*query.Result, error) {
	p, err := d.PrepareSQL(text)
	if err != nil {
		return nil, err
	}
	return p.Exec(ctx)
}

// Prepared is a routed, compiled query ready for repeated execution. It is
// safe for concurrent use.
type Prepared struct {
	db   *DB
	eng  *core.Engine
	fact string
	q    *query.Query
	sig  string
}

// Fact returns the fact table the statement was routed to.
func (p *Prepared) Fact() string { return p.fact }

// Query returns the underlying query.
func (p *Prepared) Query() *query.Query { return p.q }

// Signature returns the plan-cache key: the query's canonical SQL.
func (p *Prepared) Signature() string { return p.sig }

// Exec executes the prepared query against a snapshot pinned for the
// duration of the call. While the underlying tables are unmodified since
// the plan was compiled, execution skips planning entirely (a plan-cache
// hit); after writes, the plan is recompiled against the current snapshot.
// A cancelled ctx makes Exec return ctx.Err() at the next scan-batch
// boundary, with all snapshot pins released.
func (p *Prepared) Exec(ctx context.Context) (*query.Result, error) {
	return p.ExecStats(ctx, nil)
}

// ExecStats is Exec filling per-phase engine stats when stats is non-nil.
func (p *Prepared) ExecStats(ctx context.Context, stats *core.Stats) (*query.Result, error) {
	var res *query.Result
	err := p.db.withPlan(ctx, obs.TraceFrom(ctx), p.eng, p.compiled, func(view *core.View, c *core.Compiled) (err error) {
		res, err = p.db.execCounted(ctx, p.eng, view, c, stats)
		return err
	})
	return res, err
}

// compiled returns the statement's plan fresh in view, through the DB's
// plan cache.
func (p *Prepared) compiled(view *core.View) (*core.Compiled, bool, error) {
	return p.db.compiled(p.fact, p.sig, p.q, view)
}
