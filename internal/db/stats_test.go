package db

import (
	"context"
	"fmt"
	"testing"

	"astore/internal/core"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/storage"
)

// TestPruneByFilterBounded: root-filter labels carry their constants, so
// 200 ad-hoc queries with distinct constants would grow PruneByFilter by
// 200 labels. The fold keeps at most maxPruneLabels of them plus "other",
// and no attributed prune is lost.
func TestPruneByFilterBounded(t *testing.T) {
	nFact := 4000
	fact := storage.NewTable("fact")
	val := make([]int64, nFact)
	for i := range val {
		val[i] = int64(i) // ingest order: zone maps are tight per segment
	}
	fact.MustAddColumn("f_val", storage.NewInt64Col(val))
	cat := storage.NewDatabase()
	cat.MustAdd(fact)
	d, err := Open(cat, core.Options{SegmentRows: 250})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var attributed int64
	for i := 0; i < 200; i++ {
		q := query.New(fmt.Sprintf("adhoc%d", i)).
			Where(expr.IntGt("f_val", int64(1000+i))).
			Agg(expr.CountStar("n"))
		var st core.Stats
		if _, err := d.RunStats(ctx, q, &st); err != nil {
			t.Fatal(err)
		}
		if len(st.PruneByFilter) == 0 {
			t.Fatalf("%s pruned nothing (%d/%d segments)", q.Name, st.SegmentsPruned, st.SegmentsTotal)
		}
		for _, n := range st.PruneByFilter {
			attributed += int64(n)
		}
	}
	got := d.Stats().PruneByFilter
	if len(got) > maxPruneLabels+1 {
		t.Fatalf("PruneByFilter holds %d labels, want <= %d", len(got), maxPruneLabels+1)
	}
	if got["other"] == 0 {
		t.Fatalf("no prunes counted under \"other\": %v", got)
	}
	var sum int64
	for _, n := range got {
		sum += n
	}
	if sum != attributed {
		t.Fatalf("PruneByFilter sums to %d, want %d attributed prunes", sum, attributed)
	}
}
