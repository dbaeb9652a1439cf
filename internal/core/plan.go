package core

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"astore/internal/agg"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/schema"
	"astore/internal/storage"
)

// The plan layer separates what is append-stable from what is not:
//
//   - Dimension-side state (predicate vectors, group vectors, dictionaries,
//     AIR hops beyond the first) is captured at plan time. Dimensions are
//     flat, and any dimension mutation advances its DataVersion, which
//     evicts the plan.
//   - Root(fact)-side state — the arrays the scan actually reads — is a
//     *recipe* bound per segment at execution time (segState). Sealed
//     segments are immutable, so their bindings are cached keyed by
//     (segment, epoch); the mutable tail is rebound per execution. Flat
//     roots bind once at plan time into a single pseudo-segment state and
//     keep the old eviction rule.
//
// This is what lets live appends to a segmented fact table advance its
// DataVersion without invalidating cached plans: new rows only ever land in
// the tail (or freshly sealed segments), and the zone-map requirements
// recorded in the plan (rootReqs) prove at execution time that every
// segment's values still fall inside the ranges the plan was compiled for.

// rootFilter is a predicate on a root-table column, evaluated by direct
// selection-vector refinement through a filterer bound per segment.
type rootFilter struct {
	pred expr.Pred
	col  string
	sel  float64
	// mask is the dictionary match mask when the column is TDict, used for
	// zone-map pruning over code ranges (codes past len(mask) are new
	// values interned after planning and conservatively match).
	mask []bool
}

// scanFilter is one entry of the unified, selectivity-ordered filter
// sequence: either a root-column refinement or a dimension probe.
type scanFilter struct {
	root  *rootFilter
	probe *probeFilter
	// rank orders evaluation: estimated (or measured) selectivity scaled
	// by a per-row cost factor, so "most selective first" (§4.1) does not
	// schedule an expensive multi-hop string probe ahead of a cheap
	// sequential integer compare of similar selectivity.
	rank float64
	// label identifies the filter in Explain output and per-filter prune
	// attribution (Stats.PruneByFilter).
	label string
}

// probeFilter evaluates dimension predicates during the root scan. With a
// predicate vector (vec != nil) it is a bit probe addressed through the AIR
// chain; otherwise it is a direct evaluation of the dimension column at the
// chained position (the paper's fallback for filters too large to cache).
// The first AIR hop lives on the root and is bound per segment (fk0 is its
// column name); the remaining hops are dimension-resident arrays.
type probeFilter struct {
	table  string
	fk0    string
	dimFKs [][]int32
	vec    *storage.Bitmap
	match  func(int32) bool
	sel    float64
}

// gdKind discriminates group-dimension implementations.
type gdKind uint8

const (
	gdLeafVec  gdKind = iota // group vector + dictionary on the owning leaf table
	gdRootDict               // dictionary codes of a root DictCol
	gdRootNum                // numeric root column, id = value - base
)

// groupDim is one grouping column prepared for the grouping phase: a dense
// group-id mapping (the paper's dictionary-compressed group vector) plus the
// decode table used at extraction. Root-resident arrays (dict codes, numeric
// columns, the first AIR hop of leaf dims) are bound per segment.
type groupDim struct {
	name string
	kind gdKind

	col    string    // root kinds: root column name
	fk0    string    // leaf kind: root-side FK column name
	dimFKs [][]int32 // AIR hops beyond the first (dimension-resident)
	vec    []int32   // leaf group vector: dense id, or -1 for filtered rows

	base int64
	card int
	vals []query.Value // decode table for gdLeafVec
	dict *storage.Dict // decode table for gdRootDict
}

// decode maps a dense group id back to the group-by value.
func (d *groupDim) decode(id int32) query.Value {
	switch d.kind {
	case gdLeafVec:
		return d.vals[id]
	case gdRootDict:
		return query.StrValue(d.dict.Value(id))
	default:
		return query.NumValue(float64(d.base + int64(id)))
	}
}

// evalBind records how one column of a measure expression is reached from a
// root row: directly (root columns, rebound per segment) or through an AIR
// chain whose first hop is rebound per segment.
type evalBind struct {
	onRoot  bool
	rootCol string
	acc     func(int32) float64 // leaf: accessor over the dimension column
	fk0     string
	dimFKs  [][]int32
}

// aggPlan is one aggregate prepared for the aggregation phase: a recognized
// dense-array fast path where possible (colA/colB are root column names
// bound per segment), plus a generic evaluator recipe.
type aggPlan struct {
	agg  expr.Aggregate
	kind expr.AggKind

	form       expr.Form
	colA, colB string
	fastTry    bool

	binds map[string]*evalBind // generic evaluator column bindings
}

// rootDimReq is a value-range requirement a segmented root must satisfy for
// the plan to stay executable: every segment's zone for col must stay
// within [lo, hi] (group ids index a fixed-shape aggregation array).
type rootDimReq struct {
	col    string
	lo, hi int64
}

// plan is a fully resolved execution plan for one query.
type plan struct {
	q       *query.Query
	variant Variant
	opt     Options
	eng     *Engine
	graph   *schema.Graph // join graph the plan was resolved against

	root      *storage.Table
	rootN     int
	segmented bool

	// planSegs are the root segment views the plan was compiled against;
	// executions under a newer view pass their own.
	planSegs []storage.SegView

	rootFilters  []rootFilter
	probeFilters []probeFilter
	filters      []scanFilter // unified evaluation order

	dims     []*groupDim
	useArray bool
	dimCards []int

	aggKinds []expr.AggKind
	aggs     []*aggPlan

	// flatState is the single pre-bound pseudo-segment state of a flat
	// root (bound at plan time, exactly the pre-segmentation behaviour).
	flatState *segState

	// Freshness requirements for segmented roots (see rootCovered).
	fkMax   map[string]int64
	dimReqs []rootDimReq

	// id is the plan instance's unique identity: the key prefix for the
	// engine-level segment caches (bindings and aggregate partials).
	// Group-id assignment and compiled dimension state differ between
	// plan instances even for identical SQL, so cached per-segment state
	// is only reusable by the exact instance that produced it.
	id uint64

	stats  Stats
	leafNS int64
}

// planSeq issues unique plan instance ids.
var planSeq atomic.Uint64

// plan compiles q against the engine's live schema. This is the "leaf
// processing" phase of Fig. 10.
func (e *Engine) plan(q *query.Query) (*plan, error) {
	return e.planOn(q, e.root, e.graph)
}

// planOn compiles q against an explicit root and join graph — the engine's
// live tables, or the frozen tables of a pinned View — building predicate
// vectors, group vectors, and aggregate evaluators.
func (e *Engine) planOn(q *query.Query, root *storage.Table, g *schema.Graph) (*plan, error) {
	start := time.Now()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	pl := &plan{
		q:         q,
		variant:   e.opt.Variant,
		opt:       e.opt,
		eng:       e,
		graph:     g,
		root:      root,
		rootN:     root.NumRows(),
		segmented: root.Segmented(),
		planSegs:  root.SegViews(),
		fkMax:     make(map[string]int64),
		id:        planSeq.Add(1),
	}

	if err := pl.planFilters(); err != nil {
		return nil, err
	}
	if err := pl.planGroupDims(); err != nil {
		return nil, err
	}
	if err := pl.planAggs(); err != nil {
		return nil, err
	}
	pl.decideAggBackend()

	if !pl.segmented {
		st, err := pl.bind(&pl.planSegs[0])
		if err != nil {
			return nil, err
		}
		pl.flatState = st
	}

	pl.leafNS = time.Since(start).Nanoseconds()
	return pl, nil
}

// rootCol resolves a root binding's column: the real flat column, or the
// typed prototype of a segmented root (per-segment chunks bind later).
func rootBindingCol(b *schema.Binding) storage.Column {
	if b.Col != nil {
		return b.Col
	}
	return b.Table.ColumnProto(b.Name)
}

// needFK records that the plan indexes a captured dimension-side array of
// length n through root FK column col: segments must keep fk values in
// [0, n) for the plan to stay executable.
func (pl *plan) needFK(col string, n int) {
	hi := int64(n) - 1
	if cur, ok := pl.fkMax[col]; !ok || hi < cur {
		pl.fkMax[col] = hi
	}
}

// usePrefilter decides whether a predicate vector for table t fits the
// cache budget (§4.2: "an optimizer is used to decide whether to use
// predicate vectors, according to the row number of each table").
func (pl *plan) usePrefilter(t *storage.Table) bool {
	return pl.opt.Variant.usesPrefilters() && t.NumRows() <= pl.opt.PrefilterMaxRows
}

// planFilters resolves predicates, builds per-table predicate vectors,
// folds snowflake chains into first-level dimensions where the budget
// allows, and orders all filters most-selective-first.
func (pl *plan) planFilters() error {
	type tablePreds struct {
		binding *schema.Binding // any binding of this table (for the path)
		preds   []expr.Pred
		cols    []storage.Column
	}
	perTable := make(map[*storage.Table]*tablePreds)
	var tableOrder []*storage.Table

	for _, p := range pl.q.Preds {
		b, err := pl.graph.Resolve(p.Col)
		if err != nil {
			return err
		}
		if b.OnRoot() {
			col := rootBindingCol(b)
			// Compile once against the column type to surface type errors
			// at plan time (the per-segment binding recompiles cheaply).
			if _, err := p.Filterer(col); err != nil {
				return err
			}
			rf := rootFilter{pred: p, col: b.Name, sel: p.EstimatedSel()}
			if dc, ok := col.(*storage.DictCol); ok && p.Kind == expr.KStr {
				if mask, err := p.DictMask(dc.Dict); err == nil {
					rf.mask = mask
				}
			}
			pl.rootFilters = append(pl.rootFilters, rf)
			continue
		}
		tp := perTable[b.Table]
		if tp == nil {
			tp = &tablePreds{binding: b}
			perTable[b.Table] = tp
			tableOrder = append(tableOrder, b.Table)
		}
		tp.preds = append(tp.preds, p)
		tp.cols = append(tp.cols, b.Col)
	}

	// Build predicate vectors for tables within the cache budget.
	vecs := make(map[*storage.Table]*storage.Bitmap)
	for _, t := range tableOrder {
		if !pl.usePrefilter(t) {
			continue
		}
		tp := perTable[t]
		vec := storage.NewBitmap(t.NumRows())
		vec.SetAll()
		if del := t.Deleted(); del != nil {
			vec.AndNot(del) // out-of-date tuples never match (§4.4)
		}
		tmp := storage.NewBitmap(t.NumRows())
		for i, p := range tp.preds {
			if err := p.Bitmap(tp.cols[i], tmp); err != nil {
				return err
			}
			vec.And(tmp)
		}
		vecs[t] = vec
	}

	// Fold chains: push each vector one step toward the root while the
	// hosting table also fits the budget, so an entire snowflake chain
	// collapses into a single filter on its first-level dimension (§4.2).
	depthOf := func(t *storage.Table) int { return pl.graph.Depth(t) }
	var vecTables []*storage.Table
	for t := range vecs {
		vecTables = append(vecTables, t)
	}
	sort.Slice(vecTables, func(i, j int) bool { return depthOf(vecTables[i]) > depthOf(vecTables[j]) })
	for _, t := range vecTables {
		vec := vecs[t]
		if vec == nil {
			continue
		}
		for depthOf(t) > 1 {
			path, _ := pl.graph.PathTo(t)
			step := path[len(path)-1]
			parent := step.From
			if parent.NumRows() > pl.opt.PrefilterMaxRows {
				break // the paper's "probe the big table directly" case
			}
			pvec := vecs[parent]
			if pvec == nil {
				pvec = storage.NewBitmap(parent.NumRows())
				pvec.SetAll()
				if del := parent.Deleted(); del != nil {
					pvec.AndNot(del)
				}
				vecs[parent] = pvec
			}
			fk := parent.Column(step.FKCol).(*storage.Int32Col).V
			for i := 0; i < parent.NumRows(); i++ {
				if pvec.Get(i) && !vec.Get(int(fk[i])) {
					pvec.Clear(i)
				}
			}
			delete(vecs, t)
			t, vec = parent, pvec
		}
	}

	// Emit probe filters: predicate vectors first (cheap bit probes), then
	// direct matchers for tables without vectors.
	for _, t := range pl.graph.Tables() {
		vec, ok := vecs[t]
		if !ok {
			continue
		}
		path, _ := pl.graph.PathTo(t)
		sel := 1.0
		if t.NumRows() > 0 {
			sel = float64(vec.Count()) / float64(t.NumRows())
		}
		pf := probeFilter{table: t.Name, vec: vec, sel: sel}
		pf.fk0, pf.dimFKs = pl.bindPath(path)
		pl.probeFilters = append(pl.probeFilters, pf)
		pl.stats.PrefilterTables = append(pl.stats.PrefilterTables, t.Name)
	}
	for _, t := range tableOrder {
		if _, folded := vecs[t]; folded {
			continue
		}
		// The table's own vector may have been folded upward; if any
		// ancestor holds a vector now, the predicates are already applied.
		if pl.coveredByVec(t, vecs) {
			continue
		}
		tp := perTable[t]
		matchers := make([]func(int32) bool, len(tp.preds))
		sel := 1.0
		for i, p := range tp.preds {
			m, err := p.Matcher(tp.cols[i])
			if err != nil {
				return err
			}
			matchers[i] = m
			sel *= p.EstimatedSel()
		}
		match := matchers[0]
		if len(matchers) > 1 {
			ms := matchers
			match = func(r int32) bool {
				for _, m := range ms {
					if !m(r) {
						return false
					}
				}
				return true
			}
		}
		pf := probeFilter{table: t.Name, match: match, sel: sel}
		pf.fk0, pf.dimFKs = pl.bindPath(tp.binding.Path)
		pl.probeFilters = append(pl.probeFilters, pf)
	}

	// Unified evaluation order, most selective first (§4.1: the effect of
	// selection-vector shrinkage is maximized by running the most
	// selective predicates first). Probes through predicate vectors cost a
	// little more per row than sequential root compares (one AIR hop plus
	// a bit test); direct dimension probes cost much more (chain walk plus
	// value comparison). The rank scales selectivity by those costs.
	for i := range pl.rootFilters {
		f := &pl.rootFilters[i]
		pl.filters = append(pl.filters, scanFilter{root: f, rank: f.sel, label: f.pred.String()})
	}
	for i := range pl.probeFilters {
		f := &pl.probeFilters[i]
		cost := 1.3
		if f.vec == nil {
			cost = 2.5
		}
		cost += 0.2 * float64(len(f.dimFKs))
		label := fmt.Sprintf("probe %s via %s", f.table, f.fk0)
		pl.filters = append(pl.filters, scanFilter{probe: f, rank: f.sel * cost, label: label})
	}
	sort.SliceStable(pl.filters, func(i, j int) bool {
		return pl.filters[i].rank < pl.filters[j].rank
	})
	return nil
}

// bindPath splits a reference path into the root-side first hop (a column
// name, bound per segment) and the captured dimension-side hop arrays. The
// first hop indexes the first-level dimension's arrays, so that bound is
// recorded as a freshness requirement.
func (pl *plan) bindPath(path []schema.Step) (fk0 string, dimFKs [][]int32) {
	fk0 = path[0].FKCol
	pl.needFK(fk0, path[0].To.NumRows())
	if len(path) > 1 {
		dimFKs = make([][]int32, 0, len(path)-1)
		for _, s := range path[1:] {
			fk := s.From.Column(s.FKCol).(*storage.Int32Col)
			dimFKs = append(dimFKs, fk.V)
		}
	}
	return fk0, dimFKs
}

// coveredByVec reports whether the predicates of t were folded into a
// predicate vector of some table on t's reference path.
func (pl *plan) coveredByVec(t *storage.Table, vecs map[*storage.Table]*storage.Bitmap) bool {
	path, _ := pl.graph.PathTo(t)
	for _, s := range path {
		if s.From != pl.root {
			if _, ok := vecs[s.From]; ok {
				return true
			}
		}
	}
	return false
}

// planGroupDims prepares a dense group-id mapping per grouping column: a
// group vector plus dictionary for leaf columns (built while the leaf is
// already being processed, §4.3), dictionary codes for root dict columns,
// and base-offset encoding for root numeric columns.
func (pl *plan) planGroupDims() error {
	for _, name := range pl.q.GroupBy {
		b, err := pl.graph.Resolve(name)
		if err != nil {
			return err
		}
		if b.OnRoot() {
			d, err := pl.rootGroupDim(name, b)
			if err != nil {
				return err
			}
			pl.dims = append(pl.dims, d)
			continue
		}
		d, err := leafGroupDim(name, b)
		if err != nil {
			return err
		}
		d.fk0, d.dimFKs = pl.bindPath(b.Path)
		pl.dims = append(pl.dims, d)
	}
	return nil
}

// rootGroupDim builds the group dimension for a root-table column. The
// dense-id range comes from a column scan on flat roots and from zone maps
// on segmented roots (conservatively covering deleted rows); segmented
// plans also record the range as a freshness requirement, so appends that
// widen the column's value range evict the plan instead of overflowing the
// aggregation array.
func (pl *plan) rootGroupDim(name string, b *schema.Binding) (*groupDim, error) {
	switch c := rootBindingCol(b).(type) {
	case *storage.DictCol:
		card := c.Dict.Len()
		if card == 0 {
			card = 1
		}
		pl.dimReqs = append(pl.dimReqs, rootDimReq{col: b.Name, lo: 0, hi: int64(card) - 1})
		return &groupDim{
			name: name, kind: gdRootDict, col: b.Name,
			card: card, dict: c.Dict,
		}, nil
	case *storage.Int32Col, *storage.Int64Col:
		lo, hi, err := pl.rootNumRange(name, b)
		if err != nil {
			return nil, err
		}
		if hi-lo >= math.MaxInt32 {
			return nil, fmt.Errorf("core: group column %s has range %d, too wide for dense ids", name, hi-lo)
		}
		pl.dimReqs = append(pl.dimReqs, rootDimReq{col: b.Name, lo: lo, hi: hi})
		return &groupDim{
			name: name, kind: gdRootNum, col: b.Name,
			base: lo, card: int(hi - lo + 1),
		}, nil
	case *storage.Float64Col:
		return nil, fmt.Errorf("core: grouping by float column %s is not supported", name)
	case *storage.StrCol:
		return nil, fmt.Errorf("core: grouping by uncompressed string column %s on the fact table is not supported; dictionary-compress it", name)
	default:
		return nil, fmt.Errorf("core: unsupported group column type %T", b.Col)
	}
}

// rootNumRange returns the integer value range of a numeric root column:
// zone-map union for segmented roots, column scan for flat ones.
func (pl *plan) rootNumRange(name string, b *schema.Binding) (lo, hi int64, err error) {
	if pl.segmented {
		any := false
		for _, sv := range pl.planSegs {
			if sv.N == 0 {
				continue
			}
			z, ok := sv.Zones[b.Name]
			if !ok || !z.OK {
				return 0, 0, fmt.Errorf("core: group column %s has no zone map", name)
			}
			if !any {
				lo, hi, any = z.MinI, z.MaxI, true
			} else {
				if z.MinI < lo {
					lo = z.MinI
				}
				if z.MaxI > hi {
					hi = z.MaxI
				}
			}
		}
		if !any {
			return 0, 0, nil
		}
		return lo, hi, nil
	}
	switch c := b.Col.(type) {
	case *storage.Int32Col:
		l, h := int32Range(c.V)
		return int64(l), int64(h), nil
	case *storage.Int64Col:
		return int64Range(c.V)
	default:
		return 0, 0, fmt.Errorf("core: column %s is not integer", name)
	}
}

func int32Range(v []int32) (lo, hi int32) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func int64Range(v []int64) (lo, hi int64, err error) {
	if len(v) == 0 {
		return 0, 0, nil
	}
	lo, hi = v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// leafGroupDim builds the group vector and group dictionary for a grouping
// column on a leaf table (Fig. 6): vec[i] is the dense group id of leaf row
// i, and -1 for deleted rows.
func leafGroupDim(name string, b *schema.Binding) (*groupDim, error) {
	t := b.Table
	n := t.NumRows()
	d := &groupDim{name: name, kind: gdLeafVec, vec: make([]int32, n)}

	switch c := b.Col.(type) {
	case *storage.DictCol:
		// Map dictionary codes to dense ids in first-appearance order.
		codeID := make([]int32, c.Dict.Len())
		for i := range codeID {
			codeID[i] = -1
		}
		for i := 0; i < n; i++ {
			if t.IsDeleted(i) {
				d.vec[i] = -1
				continue
			}
			code := c.Codes[i]
			id := codeID[code]
			if id < 0 {
				id = int32(len(d.vals))
				codeID[code] = id
				d.vals = append(d.vals, query.StrValue(c.Dict.Value(code)))
			}
			d.vec[i] = id
		}
	case *storage.StrCol:
		byStr := make(map[string]int32)
		for i := 0; i < n; i++ {
			if t.IsDeleted(i) {
				d.vec[i] = -1
				continue
			}
			s := c.V[i]
			id, ok := byStr[s]
			if !ok {
				id = int32(len(d.vals))
				byStr[s] = id
				d.vals = append(d.vals, query.StrValue(s))
			}
			d.vec[i] = id
		}
	case *storage.Int32Col, *storage.Int64Col:
		byNum := make(map[int64]int32)
		for i := 0; i < n; i++ {
			if t.IsDeleted(i) {
				d.vec[i] = -1
				continue
			}
			v, _ := storage.Int64At(b.Col, i)
			id, ok := byNum[v]
			if !ok {
				id = int32(len(d.vals))
				byNum[v] = id
				d.vals = append(d.vals, query.NumValue(float64(v)))
			}
			d.vec[i] = id
		}
	default:
		return nil, fmt.Errorf("core: unsupported group column type %s for %s", b.Col.Type(), name)
	}
	d.card = len(d.vals)
	if d.card == 0 {
		d.card = 1 // empty table: keep array shapes valid
	}
	return d, nil
}

// planAggs prepares the aggregate evaluator recipes, recognizing dense fast
// paths for root-resident measure expressions.
func (pl *plan) planAggs() error {
	for _, a := range pl.q.Aggs {
		ap := &aggPlan{agg: a, kind: a.Kind}
		pl.aggKinds = append(pl.aggKinds, a.Kind)
		if a.Expr == nil { // COUNT(*)
			pl.aggs = append(pl.aggs, ap)
			continue
		}

		// Generic evaluator recipe: resolve every referenced column now so
		// schema errors surface at plan time; per-segment binding composes
		// the recorded accessors with the segment's chunks.
		ap.binds = make(map[string]*evalBind)
		for _, name := range expr.Cols(a.Expr) {
			b, err := pl.graph.Resolve(name)
			if err != nil {
				return err
			}
			if b.OnRoot() {
				if _, err := expr.ColAccessor(rootBindingCol(b)); err != nil {
					return err
				}
				ap.binds[name] = &evalBind{onRoot: true, rootCol: b.Name}
				continue
			}
			acc, err := expr.ColAccessor(b.Col)
			if err != nil {
				return err
			}
			eb := &evalBind{acc: acc}
			eb.fk0, eb.dimFKs = pl.bindPath(b.Path)
			ap.binds[name] = eb
		}

		// Fast path: recognized form with all referenced columns on the
		// root table (numeric types verified at binding).
		rec := expr.Recognize(a.Expr)
		if rec.Form != expr.FGeneric {
			ok := true
			onRootNumeric := func(name string) string {
				b, err := pl.graph.Resolve(name)
				if err != nil || !b.OnRoot() {
					ok = false
					return ""
				}
				if typ, _ := b.Table.ColumnType(b.Name); !typ.IsNumeric() {
					ok = false
					return ""
				}
				return b.Name
			}
			colA := onRootNumeric(rec.A)
			colB := ""
			if rec.Form != expr.FCol {
				colB = onRootNumeric(rec.B)
			}
			if ok {
				ap.form = rec.Form
				ap.colA, ap.colB = colA, colB
				ap.fastTry = true
			}
		}
		pl.aggs = append(pl.aggs, ap)
	}
	return nil
}

// decideAggBackend chooses between the multidimensional aggregation array
// and hash aggregation (§4.3: the optimizer estimates the sparsity/size of
// the aggregation array).
func (pl *plan) decideAggBackend() {
	if pl.variant.rowWise() || pl.variant == ColWise || pl.variant == ColWisePF {
		pl.useArray = false
		return
	}
	cells := int64(1)
	pl.dimCards = pl.dimCards[:0]
	for _, d := range pl.dims {
		pl.dimCards = append(pl.dimCards, d.card)
		cells *= int64(d.card)
		if cells > int64(agg.MaxArrayCells) {
			pl.useArray = false
			return
		}
	}
	limit := int64(agg.MaxArrayCells)
	if pl.variant == Auto {
		limit = int64(pl.opt.MaxArrayGroups)
	}
	pl.useArray = cells <= limit
	pl.stats.UsedArrayAgg = pl.useArray
}

// rootCovered reports whether every segment of a root view still satisfies
// the plan's recorded range requirements: foreign-key values stay inside
// the captured dimension-side arrays, and root grouping values stay inside
// the aggregation array's dense-id ranges. It is the execution-time
// freshness test that lets cached plans survive appends: zone maps prove
// the new rows cannot escape the compiled ranges.
func (pl *plan) rootCovered(segs []storage.SegView) bool {
	if !pl.segmented {
		return true // flat roots compare DataVersion instead
	}
	for i := range segs {
		sv := &segs[i]
		if sv.N == 0 {
			continue
		}
		if sv.Zones == nil {
			return false
		}
		for col, hi := range pl.fkMax {
			z, ok := sv.Zones[col]
			if !ok || !z.OK || z.MinI < 0 || z.MaxI > hi {
				return false
			}
		}
		for _, rq := range pl.dimReqs {
			z, ok := sv.Zones[rq.col]
			if !ok || !z.OK || z.MinI < rq.lo || z.MaxI > rq.hi {
				return false
			}
		}
	}
	return true
}

// segState is the per-segment binding of a plan's root-resident arrays:
// filter closures, group-id sources, and aggregate inputs, all addressed by
// segment-local row indexes. Deletion bitmaps are intentionally NOT part of
// the state — they come from the execution's SegView, so deletes never
// invalidate cached bindings.
type segState struct {
	n        int
	encoded  bool  // any chunk served by an encoded decode kernel
	bytes    int64 // estimated footprint for binding-cache accounting
	filters  []boundFilter
	dims     []boundDim
	aggs     []boundAgg
	rowTests []func(int32) bool // row-wise variants only
}

// boundFilter is one scanFilter bound to a segment.
type boundFilter struct {
	filt  func([]int32) []int32 // root filters
	probe *probeFilter          // shared dimension-side state
	fk0   []int32               // probe first hop, segment-local

	// Run-at-a-time probe kernel: when the FK chunk is RLE-encoded, the
	// probe verdict is computed once per run at bind time and the scan
	// walks runs instead of rows. runEnd is the chunk's cumulative run-end
	// array; runPass[ri] is run ri's verdict.
	runEnd  []int32
	runPass []bool
}

// keep reports whether local row r passes a probe filter.
func (bf *boundFilter) keep(r int32) bool {
	if bf.runEnd != nil {
		return bf.runPass[sort.Search(len(bf.runEnd), func(i int) bool { return bf.runEnd[i] > r })]
	}
	x := bf.fk0[r]
	for _, fk := range bf.probe.dimFKs {
		x = fk[x]
	}
	if bf.probe.vec != nil {
		return bf.probe.vec.Get(int(x))
	}
	return bf.probe.match(x)
}

// passValue reports whether FK value x (a first-level dimension row) passes
// the probe, walking the remaining AIR hops. Factored out so RLE probe
// binding can evaluate each distinct run value exactly once.
func (p *probeFilter) passValue(x int32) bool {
	for _, fk := range p.dimFKs {
		x = fk[x]
	}
	if p.vec != nil {
		return p.vec.Get(int(x))
	}
	return p.match(x)
}

// boundDim is one groupDim bound to a segment.
type boundDim struct {
	d     *groupDim
	fk0   []int32 // leaf kind
	codes []int32 // root dict kind
	i32   []int32 // root numeric kinds (one of i32/i64/f64 set)
	i64   []int64
	f64   []float64

	// Run-at-a-time grouping kernel: when a root dict chunk is
	// RLE-encoded, its per-run codes are read directly (one code per run
	// instead of one per row).
	rleCodes []int32
	rleEnd   []int32
}

// id returns the dense group id of local row r, or -1 if the row is
// excluded by the owning leaf's predicates (group vectors double as
// filters, §4.3).
func (b *boundDim) id(r int32) int32 {
	d := b.d
	switch d.kind {
	case gdLeafVec:
		x := b.fk0[r]
		for _, fk := range d.dimFKs {
			x = fk[x]
		}
		return d.vec[x]
	case gdRootDict:
		if b.rleEnd != nil {
			return b.rleCodes[sort.Search(len(b.rleEnd), func(i int) bool { return b.rleEnd[i] > r })]
		}
		return b.codes[r]
	default:
		switch {
		case b.i32 != nil:
			return int32(int64(b.i32[r]) - d.base)
		case b.i64 != nil:
			return int32(b.i64[r] - d.base)
		default:
			return int32(int64(b.f64[r]) - d.base)
		}
	}
}

// boundAgg is one aggPlan bound to a segment.
type boundAgg struct {
	ap   *aggPlan
	eval func(int32) float64

	aI32 []int32
	aI64 []int64
	aF64 []float64
	bI32 []int32
	bI64 []int64
	bF64 []float64
	fast bool

	// Run-at-a-time sum kernel: when a SUM(col) measure chunk is
	// RLE-encoded, the per-run values are pre-widened to float64 and the
	// accumulation loop walks runs with a cursor instead of reading rows.
	aRLEVals []float64
	aRLEEnd  []int32
}

// segStateFor returns the binding for one segment view, serving sealed
// segments from the engine's byte-accounted binding cache (sealed chunks
// are immutable; the epoch key catches copy-on-write replacements, and
// LRU eviction bounds the decode buffers the bindings pin). Tail and flat
// pseudo-segments bind fresh.
func (pl *plan) segStateFor(sv *storage.SegView) (*segState, error) {
	if sv.Seg == nil {
		if pl.flatState != nil {
			return pl.flatState, nil
		}
		return pl.bind(sv)
	}
	if !sv.Sealed {
		return pl.bind(sv)
	}
	key := bindKey{plan: pl.id, seg: sv.Seg, epoch: sv.Epoch}
	if v, ok := pl.eng.bindCache.get(key); ok {
		return v.(*segState), nil
	}
	st, err := pl.bind(sv)
	if err != nil {
		return nil, err
	}
	pl.eng.bindCache.put(key, st, st.bytes)
	return st, nil
}

// bind resolves the plan's root-resident recipes against one segment's
// chunks.
func (pl *plan) bind(sv *storage.SegView) (*segState, error) {
	cols := sv.Cols
	st := &segState{n: sv.N}
	for _, c := range cols {
		if storage.ChunkEncoding(c) != storage.EncPlain {
			st.encoded = true
			break
		}
	}
	// alloc tracks the bytes this binding allocates beyond the chunk arrays
	// it aliases — decode buffers, per-run verdicts, widened run values —
	// which is what the engine's binding cache accounts and bounds.
	alloc := int64(512)

	st.filters = make([]boundFilter, 0, len(pl.filters))
	for i := range pl.filters {
		f := &pl.filters[i]
		if f.root != nil {
			c, ok := cols[f.root.col]
			if !ok {
				return nil, fmt.Errorf("core: segment has no column %s", f.root.col)
			}
			filt, err := f.root.pred.Filterer(c)
			if err != nil {
				return nil, err
			}
			st.filters = append(st.filters, boundFilter{filt: filt})
			continue
		}
		// RLE FK chunks get the run-at-a-time probe kernel: each distinct
		// run value is chased through the AIR chain exactly once here, and
		// the scan consults only the per-run verdicts.
		if rle, ok := cols[f.probe.fk0].(*storage.RLEInt32Col); ok {
			pass := make([]bool, len(rle.V))
			for ri, x := range rle.V {
				pass[ri] = f.probe.passValue(x)
			}
			alloc += int64(len(pass))
			st.filters = append(st.filters, boundFilter{probe: f.probe, runEnd: rle.End, runPass: pass})
			continue
		}
		fk0, err := int32Chunk(cols, f.probe.fk0)
		if err != nil {
			return nil, err
		}
		alloc += decodeAllocBytes(cols[f.probe.fk0], sv.N)
		st.filters = append(st.filters, boundFilter{probe: f.probe, fk0: fk0})
	}

	st.dims = make([]boundDim, 0, len(pl.dims))
	for _, d := range pl.dims {
		bd := boundDim{d: d}
		switch d.kind {
		case gdLeafVec:
			fk0, err := int32Chunk(cols, d.fk0)
			if err != nil {
				return nil, err
			}
			alloc += decodeAllocBytes(cols[d.fk0], sv.N)
			bd.fk0 = fk0
		case gdRootDict:
			switch c := cols[d.col].(type) {
			case *storage.DictCol:
				bd.codes = c.Codes
			case *storage.RLEDictCol:
				bd.rleCodes, bd.rleEnd = c.V, c.End
			default:
				return nil, fmt.Errorf("core: segment column %s is not dict-compressed", d.col)
			}
		default:
			switch c := cols[d.col].(type) {
			case *storage.Int32Col:
				bd.i32 = c.V
			case *storage.Int64Col:
				bd.i64 = c.V
			case *storage.Float64Col:
				bd.f64 = c.V
			case *storage.RLEInt32Col:
				bd.i32 = c.DecodeInt32()
			case *storage.RLEInt64Col:
				bd.i64 = c.DecodeInt64()
			case *storage.FoRInt32Col:
				bd.i32 = c.DecodeInt32()
			case *storage.FoRInt64Col:
				bd.i64 = c.DecodeInt64()
			default:
				return nil, fmt.Errorf("core: segment column %s is not numeric", d.col)
			}
			alloc += decodeAllocBytes(cols[d.col], sv.N)
		}
		st.dims = append(st.dims, bd)
	}

	st.aggs = make([]boundAgg, 0, len(pl.aggs))
	for _, ap := range pl.aggs {
		ba := boundAgg{ap: ap}
		if ap.agg.Expr != nil {
			eval, err := expr.Compile(ap.agg.Expr, func(name string) (func(int32) float64, error) {
				eb := ap.binds[name]
				if eb == nil {
					return nil, fmt.Errorf("core: unbound column %s", name)
				}
				if eb.onRoot {
					c, ok := cols[eb.rootCol]
					if !ok {
						return nil, fmt.Errorf("core: segment has no column %s", eb.rootCol)
					}
					return expr.ColAccessor(c)
				}
				fk0, err := int32Chunk(cols, eb.fk0)
				if err != nil {
					return nil, err
				}
				alloc += decodeAllocBytes(cols[eb.fk0], sv.N)
				acc, fks := eb.acc, eb.dimFKs
				if len(fks) == 0 {
					return func(r int32) float64 { return acc(fk0[r]) }, nil
				}
				return func(r int32) float64 {
					x := fk0[r]
					for _, fk := range fks {
						x = fk[x]
					}
					return acc(x)
				}, nil
			})
			if err != nil {
				return nil, err
			}
			ba.eval = eval
			if ap.fastTry {
				// Bind-time decode kernels: FoR chunks decode word-wise
				// into a dense array once per (segment, epoch); RLE chunks
				// used as SUM(col) measures keep their run form and feed
				// the run-cursor sum loop.
				assign := func(name string, i32 *[]int32, i64 *[]int64, f64 *[]float64) bool {
					switch c := cols[name].(type) {
					case *storage.Int32Col:
						*i32 = c.V
					case *storage.Int64Col:
						*i64 = c.V
					case *storage.Float64Col:
						*f64 = c.V
					case *storage.RLEInt32Col:
						*i32 = c.DecodeInt32()
					case *storage.RLEInt64Col:
						*i64 = c.DecodeInt64()
					case *storage.FoRInt32Col:
						*i32 = c.DecodeInt32()
					case *storage.FoRInt64Col:
						*i64 = c.DecodeInt64()
					default:
						return false
					}
					alloc += decodeAllocBytes(cols[name], sv.N)
					return true
				}
				if ap.form == expr.FCol {
					switch c := cols[ap.colA].(type) {
					case *storage.RLEInt32Col:
						ba.aRLEVals, ba.aRLEEnd = widenRuns32(c.V), c.End
						ba.fast = true
						alloc += int64(8 * len(ba.aRLEVals))
					case *storage.RLEInt64Col:
						ba.aRLEVals, ba.aRLEEnd = widenRuns64(c.V), c.End
						ba.fast = true
						alloc += int64(8 * len(ba.aRLEVals))
					}
				}
				if !ba.fast {
					ba.fast = assign(ap.colA, &ba.aI32, &ba.aI64, &ba.aF64)
					if ba.fast && ap.colB != "" {
						ba.fast = assign(ap.colB, &ba.bI32, &ba.bI64, &ba.bF64)
					}
				}
			}
		}
		st.aggs = append(st.aggs, ba)
	}

	if pl.variant.rowWise() {
		st.rowTests = make([]func(int32) bool, len(st.filters))
		for i := range st.filters {
			bf := &st.filters[i]
			if bf.probe != nil {
				st.rowTests[i] = bf.keep
				continue
			}
			f := pl.filters[i].root
			m, err := f.pred.Matcher(cols[f.col])
			if err != nil {
				return nil, err
			}
			st.rowTests[i] = m
		}
	}
	st.bytes = alloc
	return st, nil
}

// decodeAllocBytes estimates the dense buffer a decode of chunk c into n
// rows allocated: encoded chunks decode into fresh arrays the binding
// pins, plain chunks are aliased for free.
func decodeAllocBytes(c storage.Column, n int) int64 {
	switch c.(type) {
	case *storage.RLEInt32Col, *storage.FoRInt32Col:
		return int64(4 * n)
	case *storage.RLEInt64Col, *storage.FoRInt64Col:
		return int64(8 * n)
	}
	return 0
}

func int32Chunk(cols map[string]storage.Column, name string) ([]int32, error) {
	switch c := cols[name].(type) {
	case *storage.Int32Col:
		return c.V, nil
	case *storage.RLEInt32Col:
		return c.DecodeInt32(), nil
	case *storage.FoRInt32Col:
		// Word-wise decode: consecutive packed values are extracted from
		// each 64-bit word in sequence (spill values touch two words).
		return c.DecodeInt32(), nil
	}
	return nil, fmt.Errorf("core: segment column %s is not int32", name)
}

// widenRuns32 pre-widens RLE run values to float64 for the run-cursor
// accumulation loop.
func widenRuns32(v []int32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

func widenRuns64(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// mayMatchSegment reports whether a filter could select any row of the
// segment, consulting zone maps. Conservative: unknown shapes return true.
func (f *scanFilter) mayMatchSegment(sv *storage.SegView) bool {
	if sv.Zones == nil {
		return true
	}
	if f.root != nil {
		z, ok := sv.Zones[f.root.col]
		if !ok {
			return true
		}
		if !z.OK {
			return false // empty chunk: nothing matches
		}
		if z.Typ == storage.TDict {
			if f.root.mask == nil {
				return true
			}
			return maskAnyInRange(f.root.mask, z.MinI, z.MaxI)
		}
		if z.Typ == storage.TFloat64 {
			return f.root.pred.OverlapsFloatRange(z.MinF, z.MaxF)
		}
		return f.root.pred.OverlapsIntRange(z.MinI, z.MaxI)
	}
	// Probe pruning: a predicate vector on the first-level dimension plus
	// the segment's FK range prove emptiness when no selected dimension row
	// falls inside the range. Deeper (unfolded) chains cannot be pruned
	// from the root FK range alone.
	p := f.probe
	if p.vec == nil || len(p.dimFKs) > 0 {
		return true
	}
	z, ok := sv.Zones[p.fk0]
	if !ok {
		return true // missing zone: conservative
	}
	if !z.OK {
		return false // empty chunk: nothing matches
	}
	return p.vec.AnySetInRange(int(z.MinI), int(z.MaxI))
}

// maskAnyInRange reports whether any dictionary code in [lo, hi] has its
// mask bit set; codes beyond the mask are values interned after planning
// and conservatively match.
func maskAnyInRange(mask []bool, lo, hi int64) bool {
	if lo < 0 {
		lo = 0
	}
	if hi >= int64(len(mask)) {
		return true
	}
	for c := lo; c <= hi; c++ {
		if mask[c] {
			return true
		}
	}
	return false
}
