package shard

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/query"
)

// TestOneWorkerCoordinatorIsSingleNode: a coordinator over one in-process
// worker runs the same pipeline as single-node execution, so it must
// return the same rows and fold the same cumulative db.Stats — cold, then
// warm. Only the plan-cache counters differ: the coordinator compiles on
// the worker's pin and again on the merge pin.
func TestOneWorkerCoordinatorIsSingleNode(t *testing.T) {
	single, _ := ssbDB(t, 0.005, 2048)
	sharded, _ := ssbDB(t, 0.005, 2048)
	c, err := New(sharded, NewLocalWorkers(sharded, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	texts := ssb.QueriesSQL()
	names := make([]string, 0, len(texts))
	for name := range texts {
		names = append(names, name)
	}
	sort.Strings(names)
	for pass := 0; pass < 2; pass++ {
		for _, name := range names {
			p, err := single.PrepareSQL(texts[name])
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.ExecStats(ctx, nil)
			if err != nil {
				t.Fatalf("%s: single-node: %v", name, err)
			}
			got, _, err := c.Exec(ctx, texts[name])
			if err != nil {
				t.Fatalf("%s: coordinator: %v", name, err)
			}
			if err := query.Diff(want, got, 0); err != nil {
				t.Fatalf("%s pass %d: one-worker coordinator differs from single-node: %v", name, pass, err)
			}
		}
		a, b := foldedStats(single.Stats()), foldedStats(sharded.Stats())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pass %d: folded stats differ:\nsingle-node %+v\ncoordinator %+v", pass, a, b)
		}
		if pass == 1 && a.AggCacheHits == 0 {
			t.Fatalf("warm pass recorded no aggregate-cache hits: %+v", a)
		}
	}
}

// foldedStats drops the plan-cache counters, which count compilations
// rather than executions.
func foldedStats(s db.Stats) db.Stats {
	s.Prepares, s.PlanHits, s.PlanMisses, s.PlanStale, s.PlanEvictions = 0, 0, 0, 0, 0
	return s
}
