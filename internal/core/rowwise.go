package core

import (
	"encoding/binary"
	"time"
)

// processMorselRowWise is the per-morsel kernel of the tuple-at-a-time
// variants (AIRScan_R and AIRScan_R_P of Table 6): each root tuple is
// fetched, evaluated against every predicate — through AIR chains, or
// against predicate vectors when the variant builds them — and fed to
// hash-based grouping and aggregation. It exists to quantify what the
// column-wise optimizations buy; planning, segment admission (zone-map
// pruning), parallel morsel scheduling, cancellation, and result
// extraction are the columnar path's (collect, extract). Row-wise variants
// always aggregate into a hash table (decideAggBackend never picks the
// array for them).
func (pl *plan) processMorselRowWise(p *partial, es execSeg, lo, hi int) {
	st := es.st
	del := es.sv.Del
	t0 := time.Now()
	p.scanned += int64(hi - lo)
	key := p.key
	kinds := p.h.Kinds()
rows:
	for r := int32(lo); r < int32(hi); r++ {
		if del != nil && del.Get(int(r)) {
			continue
		}
		for _, test := range st.rowTests {
			if !test(r) {
				continue rows
			}
		}
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
		p.selected++
		c := p.h.Upsert(key)
		c.Count++
		for k := range st.aggs {
			ba := &st.aggs[k]
			if ba.ap.agg.Expr == nil {
				continue
			}
			c.Update(kinds, k, ba.eval(r))
		}
	}
	p.scanNS += time.Since(t0).Nanoseconds()
}
