package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/storage"
)

// TestVariantsMatchOracleStar is the central differential test: every scan
// variant, serial and parallel, must produce exactly the oracle's result on
// every query of the battery.
func TestVariantsMatchOracleStar(t *testing.T) {
	fact := buildStar(t, 42, 5000)
	for _, q := range starQueries() {
		want, err := naiveRun(fact, q)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q.Name, err)
		}
		for _, v := range allVariants() {
			for _, workers := range []int{1, 4} {
				eng, err := New(fact, Options{Variant: v, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Run(q)
				if err != nil {
					t.Fatalf("%s [%s w=%d]: %v", q.Name, v, workers, err)
				}
				if err := query.Diff(want, got, 1e-9); err != nil {
					t.Errorf("%s [%s w=%d]: %v", q.Name, v, workers, err)
				}
			}
		}
	}
}

// TestVariantsMatchOracleSnowflake exercises multi-hop reference paths and
// predicate-filter chain folding.
func TestVariantsMatchOracleSnowflake(t *testing.T) {
	fact := buildSnowflakeLarge(t, 7, 4000)
	queries := []*query.Query{
		query.New("q3-like").
			Where(expr.StrEq("r_name", "ASIA"), expr.IntGe("o_price", 800)).
			GroupByCols("n_name").
			Agg(expr.SumOf(expr.Mul(expr.C("l_extendedprice"), expr.Subtract(expr.K(1), expr.C("l_discount"))), "revenue")).
			OrderDesc("revenue"),
		query.New("deep-group").
			Where(expr.StrIn("c_mktsegment", "BUILDING", "MACHINERY")).
			GroupByCols("r_name", "p_type").
			Agg(expr.CountStar("cnt"), expr.SumOf(expr.C("l_extendedprice"), "rev")).
			OrderAsc("r_name").OrderAsc("p_type"),
		query.New("deep-pred-only").
			Where(expr.StrEq("r_name", "EUROPE")).
			Agg(expr.CountStar("cnt")),
		query.New("mid-chain-measure").
			Where(expr.StrEq("p_type", "TYPE3")).
			GroupByCols("c_mktsegment").
			Agg(expr.SumOf(expr.C("o_price"), "total")).
			OrderAsc("c_mktsegment"),
	}
	for _, q := range queries {
		want, err := naiveRun(fact, q)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q.Name, err)
		}
		for _, v := range allVariants() {
			eng, err := New(fact, Options{Variant: v, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Run(q)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q.Name, v, err)
			}
			if err := query.Diff(want, got, 1e-9); err != nil {
				t.Errorf("%s [%s]: %v", q.Name, v, err)
			}
		}
	}
}

// TestChainFoldingCollapsesToFirstLevel verifies that a predicate on the
// deepest snowflake table is folded into a single predicate vector on the
// first-level dimension when everything fits the budget.
func TestChainFoldingCollapsesToFirstLevel(t *testing.T) {
	fact := buildSnowflakeLarge(t, 7, 1000)
	eng, err := New(fact, Options{Variant: Auto})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("deep").
		Where(expr.StrEq("r_name", "ASIA")).
		Agg(expr.CountStar("cnt"))
	var st Stats
	if _, err := eng.RunWithStats(q, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.PrefilterTables) != 1 || st.PrefilterTables[0] != "order" {
		t.Errorf("prefilter tables = %v, want [order]", st.PrefilterTables)
	}
}

// TestBudgetStopsFolding verifies the paper's "probe the big table
// directly" case: when an intermediate table exceeds the cache budget, the
// deeper filter stays separate and the big table is never vectorized.
func TestBudgetStopsFolding(t *testing.T) {
	fact := buildSnowflakeLarge(t, 7, 1000)
	// Budget below the order table's 200 rows but above customer's 60.
	eng, err := New(fact, Options{Variant: Auto, PrefilterMaxRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("deep").
		Where(expr.StrEq("r_name", "ASIA"), expr.IntGe("o_price", 500)).
		Agg(expr.CountStar("cnt"))
	var st Stats
	got, err := eng.RunWithStats(q, &st)
	if err != nil {
		t.Fatal(err)
	}
	// The region filter folds down to customer (60 rows <= 100) but cannot
	// enter order (200 rows > 100); o_price is probed directly.
	if len(st.PrefilterTables) != 1 || st.PrefilterTables[0] != "customer" {
		t.Errorf("prefilter tables = %v, want [customer]", st.PrefilterTables)
	}
	want, err := naiveRun(fact, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Diff(want, got, 1e-9); err != nil {
		t.Error(err)
	}
}

// TestHashFallbackWhenArrayTooSparse verifies the §4.3 optimizer: a tiny
// MaxArrayGroups forces hash aggregation, with identical results.
func TestHashFallbackWhenArrayTooSparse(t *testing.T) {
	fact := buildStar(t, 9, 2000)
	q := query.New("wide-group").
		GroupByCols("c_nation", "p_brand", "d_year").
		Agg(expr.SumOf(expr.C("f_revenue"), "rev"))

	engArr, _ := New(fact, Options{Variant: Auto})
	engHash, _ := New(fact, Options{Variant: Auto, MaxArrayGroups: 2})

	var stArr, stHash Stats
	resArr, err := engArr.RunWithStats(q, &stArr)
	if err != nil {
		t.Fatal(err)
	}
	resHash, err := engHash.RunWithStats(q, &stHash)
	if err != nil {
		t.Fatal(err)
	}
	if !stArr.UsedArrayAgg {
		t.Error("default engine did not use array aggregation")
	}
	if stHash.UsedArrayAgg {
		t.Error("constrained engine did not fall back to hash aggregation")
	}
	if err := query.Diff(resArr, resHash, 1e-9); err != nil {
		t.Error(err)
	}
}

// TestPrefilterBudgetDisablesVectors: with a zero-ish budget, Auto must
// probe all dimensions directly and still match.
func TestPrefilterBudgetDisablesVectors(t *testing.T) {
	fact := buildStar(t, 11, 1500)
	q := query.New("q").
		Where(expr.StrEq("c_region", "EUROPE"), expr.IntEq("d_year", 1995)).
		GroupByCols("c_nation").
		Agg(expr.CountStar("cnt"))
	eng, _ := New(fact, Options{Variant: Auto, PrefilterMaxRows: 1})
	var st Stats
	got, err := eng.RunWithStats(q, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PrefilterTables) != 0 {
		t.Errorf("prefilter tables = %v, want none", st.PrefilterTables)
	}
	want, _ := naiveRun(fact, q)
	if err := query.Diff(want, got, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestDeletedRowsExcluded(t *testing.T) {
	fact := buildStar(t, 13, 800)
	date := fact.FK("f_dk")

	// Retarget fact rows referencing date row 3, then delete it; also
	// delete some fact rows directly.
	fk := fact.Column("f_dk").(*storage.Int32Col)
	for i, v := range fk.V {
		if v == 3 {
			fk.V[i] = 4
		}
	}
	if err := date.Delete(3); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{10, 20, 30, 700} {
		if err := fact.Delete(r); err != nil {
			t.Fatal(err)
		}
	}

	q := query.New("q").
		Where(expr.IntBetween("d_year", 1992, 1998)).
		GroupByCols("d_year").
		Agg(expr.CountStar("cnt"), expr.SumOf(expr.C("f_revenue"), "rev")).
		OrderAsc("d_year")
	want, err := naiveRun(fact, q)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, row := range want.Rows {
		total += row.Aggs[0]
	}
	if total != float64(800-4) {
		t.Fatalf("oracle counted %v rows, want 796", total)
	}
	for _, v := range allVariants() {
		eng, _ := New(fact, Options{Variant: v})
		got, err := eng.Run(q)
		if err != nil {
			t.Fatalf("[%s]: %v", v, err)
		}
		if err := query.Diff(want, got, 1e-9); err != nil {
			t.Errorf("[%s]: %v", v, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	fact := buildStar(t, 1, 100)
	eng, err := New(fact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []*query.Query{
		query.New("bad-pred").Where(expr.IntEq("nope", 1)).Agg(expr.CountStar("c")),
		query.New("bad-group").GroupByCols("nope").Agg(expr.CountStar("c")),
		query.New("bad-agg").Agg(expr.SumOf(expr.C("nope"), "s")),
		query.New("no-aggs"),
		query.New("type-clash").Where(expr.IntEq("c_region", 1)).Agg(expr.CountStar("c")),
		query.New("str-measure").Agg(expr.SumOf(expr.C("c_region"), "s")),
		query.New("float-group").GroupByCols("f_frac").Agg(expr.CountStar("c")),
	}
	for _, q := range cases {
		if _, err := eng.Run(q); err == nil {
			t.Errorf("%s: no error", q.Name)
		}
	}
}

func TestNewRejectsNonTree(t *testing.T) {
	dim := storage.NewTable("d")
	dim.MustAddColumn("x", storage.NewInt64Col([]int64{1}))
	fact := storage.NewTable("f")
	fact.MustAddColumn("a", storage.NewInt32Col([]int32{0}))
	fact.MustAddColumn("b", storage.NewInt32Col([]int32{0}))
	fact.MustAddFK("a", dim)
	fact.MustAddFK("b", dim)
	if _, err := New(fact, Options{}); err == nil {
		t.Fatal("non-tree schema accepted")
	}
}

func TestStatsSanity(t *testing.T) {
	fact := buildStar(t, 5, 3000)
	eng, _ := New(fact, Options{Variant: Auto})
	q := query.New("q").
		Where(expr.StrEq("c_region", "ASIA")).
		GroupByCols("c_nation").
		Agg(expr.CountStar("cnt"))
	var st Stats
	res, err := eng.RunWithStats(q, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsScanned != 3000 {
		t.Errorf("RowsScanned = %d", st.RowsScanned)
	}
	if st.RowsSelected <= 0 || st.RowsSelected > st.RowsScanned {
		t.Errorf("RowsSelected = %d", st.RowsSelected)
	}
	if st.Groups != len(res.Rows) {
		t.Errorf("Groups = %d, rows = %d", st.Groups, len(res.Rows))
	}
	if st.LeafNS < 0 || st.ScanNS < 0 || st.AggNS < 0 {
		t.Error("negative phase time")
	}
	if !st.UsedArrayAgg {
		t.Error("Auto should use array aggregation here")
	}
	if len(st.PrefilterTables) != 1 || st.PrefilterTables[0] != "customer" {
		t.Errorf("PrefilterTables = %v", st.PrefilterTables)
	}
}

func TestVariantString(t *testing.T) {
	want := map[Variant]string{
		Auto: "A-Store", RowWise: "AIRScan_R", RowWisePF: "AIRScan_R_P",
		ColWise: "AIRScan_C", ColWisePF: "AIRScan_C_P", ColWisePFG: "AIRScan_C_P_G",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
	if !strings.Contains(Variant(99).String(), "99") {
		t.Error("unknown variant String")
	}
}

// TestMakeMorsels: the morsel split covers every admitted segment's rows
// exactly once, in order, never straddles a segment, and never exceeds the
// batch-row bound (the granularity of cancellation checks).
func TestMakeMorsels(t *testing.T) {
	pl := &plan{opt: Options{Workers: 2, PartitionsPerWorker: 2, BatchRows: 4}}
	sizes := []int{10, 0, 3, 17}
	kept := make([]execSeg, len(sizes))
	for i, n := range sizes {
		kept[i] = execSeg{sv: &storage.SegView{N: n}}
	}
	covered := make([]int, len(sizes))
	for _, m := range pl.makeMorsels(kept) {
		if m.lo != covered[m.si] || m.hi <= m.lo || m.hi > sizes[m.si] {
			t.Fatalf("morsel %+v does not continue segment %d at row %d", m, m.si, covered[m.si])
		}
		if m.hi-m.lo > pl.opt.BatchRows {
			t.Fatalf("morsel %+v exceeds %d batch rows", m, pl.opt.BatchRows)
		}
		covered[m.si] = m.hi
	}
	for i, n := range sizes {
		if covered[i] != n {
			t.Errorf("segment %d: covered %d of %d rows", i, covered[i], n)
		}
	}
	if got := pl.makeMorsels(kept[1:2]); got != nil {
		t.Errorf("morsels over an empty segment = %v", got)
	}
}

// Property: random queries over random star schemas agree across all
// variants and the oracle.
func TestRandomQueriesQuick(t *testing.T) {
	groupCols := []string{"d_year", "d_month", "c_region", "c_nation", "p_brand", "f_discount", "f_tag"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fact := buildStar(t, seed, rng.Intn(2000)+100)

		q := query.New("rand")
		if rng.Intn(2) == 0 {
			q.Where(expr.IntBetween("f_discount", int64(rng.Intn(5)), int64(5+rng.Intn(6))))
		}
		if rng.Intn(2) == 0 {
			q.Where(expr.StrIn("c_region", "ASIA", "EUROPE"))
		}
		if rng.Intn(2) == 0 {
			q.Where(expr.IntEq("d_year", int64(1992+rng.Intn(7))))
		}
		if rng.Intn(2) == 0 {
			q.Where(expr.IntLt("p_size", int64(rng.Intn(20))))
		}
		ng := rng.Intn(3)
		perm := rng.Perm(len(groupCols))
		for i := 0; i < ng; i++ {
			q.GroupByCols(groupCols[perm[i]])
		}
		q.Agg(expr.CountStar("cnt"))
		switch rng.Intn(3) {
		case 0:
			q.Agg(expr.SumOf(expr.C("f_revenue"), "rev"))
		case 1:
			q.Agg(expr.SumOf(expr.Mul(expr.C("f_extprice"), expr.C("f_discount")), "rev"))
		case 2:
			q.Agg(expr.MinOf(expr.C("f_revenue"), "lo"), expr.MaxOf(expr.C("f_revenue"), "hi"))
		}

		want, err := naiveRun(fact, q)
		if err != nil {
			return false
		}
		for _, v := range allVariants() {
			workers := 1 + rng.Intn(3)
			eng, err := New(fact, Options{Variant: v, Workers: workers})
			if err != nil {
				return false
			}
			got, err := eng.Run(q)
			if err != nil {
				return false
			}
			if err := query.Diff(want, got, 1e-9); err != nil {
				t.Logf("seed %d variant %s: %v", seed, v, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
