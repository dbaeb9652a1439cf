package core

import (
	"context"
	"fmt"
	"testing"

	"astore/internal/agg"
	"astore/internal/baseline"
	"astore/internal/query"
	"astore/internal/storage"
)

// pipelineFixture builds the star fixture with an unsealed tail and one
// deleted row in a sealed segment: segmented (the engine's root) and flat
// (the oracle's), with identical logical contents.
func pipelineFixture(t *testing.T) (seg, flat *storage.Table) {
	t.Helper()
	seg = segmentStar(t, 61, 3000, 512)
	flat = buildStar(t, 61, 3000)
	for _, fact := range []*storage.Table{seg, flat} {
		for i := 0; i < 41; i++ {
			if _, err := fact.Insert(map[string]any{
				"f_dk": i % 8, "f_ck": i % 50, "f_pk": i % 40,
				"f_quantity": i%50 + 1, "f_discount": i % 11,
				"f_extprice": 100 + i, "f_revenue": 90 + i, "f_supplycost": 50 + i,
				"f_frac": float64(i%4) / 4, "f_tag": []string{"red", "green", "blue"}[i%3],
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := fact.Delete(700); err != nil {
			t.Fatal(err)
		}
	}
	return seg, flat
}

// TestPipelineMatrix drives every entry into the one execution pipeline —
// Exec for every variant, and ExecPartial + MergePartials for the columnar
// ones — with the aggregate cache off, cold and warm, on one and two
// workers. Exec must match the hash-join baseline; the partial route must
// return Exec's rows and report the same admission and scan counters.
func TestPipelineMatrix(t *testing.T) {
	seg, flat := pipelineFixture(t)
	oracle := baseline.NewHashJoinEngine(flat)
	queries := starQueries()
	want := make([]*query.Result, len(queries))
	for i, q := range queries {
		res, err := oracle.Run(q)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q.Name, err)
		}
		want[i] = res
	}
	ctx := context.Background()
	for _, variant := range allVariants() {
		for _, cache := range []string{"off", "cold", "warm"} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s/cache=%s/w=%d", variant, cache, workers)
				opt := Options{Variant: variant, Workers: workers}
				if cache == "off" {
					opt.AggCacheBytes = -1
				}
				eng, err := New(seg, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range queries {
					if err := checkPipeline(ctx, eng, q, want[i], cache); err != nil {
						t.Errorf("%s %s: %v", name, q.Name, err)
					}
				}
			}
		}
	}
	if pins := seg.Pins(); pins != 0 {
		t.Fatalf("leaked %d pins", pins)
	}
}

// checkPipeline runs q through both routes on separately compiled plans
// (so each route owns its aggregate-cache entries), after one warming run
// per route when cache is "warm".
func checkPipeline(ctx context.Context, eng *Engine, q *query.Query, want *query.Result, cache string) error {
	v, err := eng.Acquire()
	if err != nil {
		return err
	}
	defer v.Release()
	single, err := v.Compile(q)
	if err != nil {
		return err
	}
	columnar := !eng.Options().Variant.rowWise()
	sharded, err := v.Compile(q)
	if err != nil {
		return err
	}
	viaPartial := func(stats *Stats) (*query.Result, error) {
		part, err := eng.ExecPartial(ctx, v, sharded, v.RootSegments(), stats)
		if err != nil {
			return nil, err
		}
		return eng.MergePartials(sharded, []*agg.Partial{part}, nil)
	}
	if cache == "warm" {
		if _, err := eng.Exec(ctx, v, single, nil); err != nil {
			return err
		}
		if columnar {
			if _, err := viaPartial(nil); err != nil {
				return err
			}
		}
	}

	var st Stats
	got, err := eng.Exec(ctx, v, single, &st)
	if err != nil {
		return err
	}
	if err := query.Diff(want, got, 1e-9); err != nil {
		return fmt.Errorf("exec vs hash-join baseline: %w", err)
	}
	if !columnar {
		return nil
	}
	sealed := st.SegmentsTotal - st.SegmentsPruned // admitted, less the tail
	if st.TailRows > 0 {
		sealed--
	}
	switch hits, misses := st.AggCacheHits, st.AggCacheMisses; {
	case cache == "off" && hits+misses != 0,
		cache == "cold" && (hits != 0 || misses != sealed),
		cache == "warm" && (hits != sealed || misses != 0):
		return fmt.Errorf("cache %s: %d hits, %d misses over %d admitted sealed segments", cache, hits, misses, sealed)
	}
	var pst Stats
	merged, err := viaPartial(&pst)
	if err != nil {
		return err
	}
	if err := query.Diff(got, merged, 1e-9); err != nil {
		return fmt.Errorf("ExecPartial+MergePartials vs Exec: %w", err)
	}
	type counters struct {
		rowsScanned, tailRows        int64
		segsTotal, segsPruned        int
		aggCacheHits, aggCacheMisses int
	}
	of := func(s *Stats) counters {
		return counters{s.RowsScanned, s.TailRows, s.SegmentsTotal, s.SegmentsPruned, s.AggCacheHits, s.AggCacheMisses}
	}
	if a, b := of(&st), of(&pst); a != b {
		return fmt.Errorf("counters differ: exec %+v, partial %+v", a, b)
	}
	return nil
}
