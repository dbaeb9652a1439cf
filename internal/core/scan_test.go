package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/storage"
)

// TestFilterProbeMatchesBranchyReference: the branch-free predicate-vector
// probe keeps exactly the rows a branchy bit test keeps, in order, for
// vector lengths on and off a word boundary and for empty, all-pass,
// none-pass and random vectors over full, empty and gapped selections.
func TestFilterProbeMatchesBranchyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const rows = 1000
	for _, bits := range []int{1, 63, 64, 65, 130, 1001} {
		for _, fill := range []string{"none", "all", "random"} {
			vec := storage.NewBitmap(bits)
			switch fill {
			case "all":
				vec.SetAll()
			case "random":
				for i := 0; i < bits; i++ {
					if rng.Intn(3) == 0 {
						vec.Set(i)
					}
				}
			}
			fk := make([]int32, rows)
			for r := range fk {
				fk[r] = int32(rng.Intn(bits))
			}
			f := &boundFilter{probe: &probeFilter{vec: vec}, fk0: fk}

			full := make([]int32, rows)
			for r := range full {
				full[r] = int32(r)
			}
			var gapped []int32 // identity minus "deleted" rows
			for r := range full {
				if rng.Intn(4) != 0 {
					gapped = append(gapped, int32(r))
				}
			}
			for _, sel := range map[string][]int32{"empty": {}, "full": full, "gapped": gapped} {
				var want []int32
				for _, r := range sel {
					if vec.Get(int(fk[r])) {
						want = append(want, r)
					}
				}
				got := filterProbe(f, slices.Clone(sel))
				if !slices.Equal(got, want) {
					t.Fatalf("bits=%d fill=%s len(sel)=%d: kept %d rows, want %d", bits, fill, len(sel), len(got), len(want))
				}
			}
		}
	}
}

// coldScanRoot is a star fact table of n sealed 64Ki-row segments plus a
// short tail, the default batch size, so every sealed segment fills one
// full-size selection vector.
func coldScanRoot(tb testing.TB, n int) *storage.Table {
	tb.Helper()
	fact := buildStar(tb, 3, n<<16+100)
	if err := fact.SetSegmentTarget(1 << 16); err != nil {
		tb.Fatal(err)
	}
	if sealed, _ := fact.SegmentCounts(); sealed != n {
		tb.Fatalf("%d sealed segments, want %d", sealed, n)
	}
	return fact
}

// coldScanQuery probes a predicate vector and groups by a leaf dimension,
// so a cold run binds, filters, groups and installs every sealed segment.
func coldScanQuery() *query.Query {
	return query.New("cold").
		Where(expr.StrIn("c_region", "ASIA", "EUROPE")).
		GroupByCols("d_year").
		Agg(expr.SumOf(expr.C("f_revenue"), "rev"))
}

// TestColdScanAllocsPerSegment: with the aggregate cache on, a cold run
// (a fresh plan, so every sealed segment is a cache miss that is scanned
// and installed) reuses the worker's scan buffers. Each additional
// cache-miss segment must allocate less than one 64Ki-row selection vector.
func TestColdScanAllocsPerSegment(t *testing.T) {
	alloc := func(segs int) uint64 {
		eng, err := New(coldScanRoot(t, segs), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := coldScanQuery()
		if _, err := eng.Run(q); err != nil { // warm the array pool
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var st Stats
		if _, err := eng.RunWithStats(q, &st); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if st.AggCacheMisses != segs || st.AggCacheHits != 0 {
			t.Fatalf("%d segments: %d misses, %d hits; want a cold run", segs, st.AggCacheMisses, st.AggCacheHits)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	a8, a16 := alloc(8), alloc(16)
	perSeg := (int64(a16) - int64(a8)) / 8
	const selVec = 4 << 16 // one 64Ki-row selection vector of int32
	t.Logf("cold run: 8 segments %d KB, 16 segments %d KB, %d KB per extra segment", a8>>10, a16>>10, perSeg>>10)
	if perSeg >= selVec {
		t.Fatalf("each extra cache-miss segment allocates %d bytes, want < %d", perSeg, selVec)
	}
}

// TestRunReleasesCacheEntries: Engine.Run compiles a one-shot plan, so the
// aggregate and binding cache entries it installs (keyed by that plan
// instance, which no later run looks up) are dropped when the run ends.
func TestRunReleasesCacheEntries(t *testing.T) {
	eng, err := New(coldScanRoot(t, 4), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Run(coldScanQuery()); err != nil {
			t.Fatal(err)
		}
	}
	cs := eng.CacheStats()
	if cs.AggMisses != 20 || cs.BindMisses != 20 {
		t.Fatalf("%d aggregate and %d binding misses, want 20 each: the runs did not go through the caches",
			cs.AggMisses, cs.BindMisses)
	}
	if cs.AggEntries != 0 || cs.BindEntries != 0 || cs.AggBytes != 0 || cs.BindBytes != 0 {
		t.Fatalf("after 5 runs: %d aggregate entries (%d B), %d binding entries (%d B); want none",
			cs.AggEntries, cs.AggBytes, cs.BindEntries, cs.BindBytes)
	}
}

// BenchmarkColdSegmentScan measures the cold path of the aggregate cache:
// every iteration compiles a fresh plan, so all 8 sealed segments are
// cache misses that are bound, scanned and installed.
func BenchmarkColdSegmentScan(b *testing.B) {
	eng, err := New(coldScanRoot(b, 8), Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	q := coldScanQuery()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(q); err != nil {
			b.Fatalf("iteration %d: %v", i, err)
		}
	}
}
