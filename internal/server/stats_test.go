package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"testing"

	"astore/internal/core"
)

// keysOf returns the sorted keys of a decoded JSON object.
func keysOf(t *testing.T, v any) []string {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("not a JSON object: %T", v)
	}
	return slices.Sorted(maps.Keys(m))
}

// TestStatsJSONKeys pins the /v1/stats key set: the top level, the db
// block (served straight from db.Stats), an endpoint entry, and the
// admission block. Renaming a counter breaks every dashboard reading it.
func TestStatsJSONKeys(t *testing.T) {
	_, ts, _, _ := newSSBServer(t, 0.01, Config{}, core.Options{SegmentRows: 4096})
	resp, _ := post(t, ts.URL+"/v1/query", `{"sql": "SELECT sum(lo_revenue) AS rev FROM lineorder"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	check := func(what string, v any, want []string) {
		t.Helper()
		want = slices.Sorted(slices.Values(want))
		if keys := keysOf(t, v); !slices.Equal(keys, want) {
			t.Errorf("%s keys = %v, want %v", what, keys, want)
		}
	}
	check("top level", got, []string{"admission", "db", "endpoints", "panics", "slow_queries", "tables", "uptime_ms", "uptime_seconds"})
	dbKeys := []string{
		"agg_cache_bytes", "agg_cache_entries", "agg_cache_evictions", "agg_cache_hits", "agg_cache_misses",
		"bind_cache_bytes", "bind_cache_entries", "bind_cache_evictions", "bind_cache_hits", "bind_cache_misses",
		"encoded_segments", "execs", "plan_evictions", "plan_hits", "plan_misses", "plan_stale", "prepares",
		"rows_scanned", "rows_selected", "segments_pruned", "segments_total", "tail_rows",
	}
	check("db", got["db"], dbKeys)
	check("admission", got["admission"], []string{"admitted", "in_flight", "max_in_flight", "max_queue", "queued", "rejected", "waiting"})
	eps, _ := got["endpoints"].(map[string]any)
	if eps["query"] == nil {
		t.Fatalf("no query endpoint in %v", keysOf(t, got["endpoints"]))
	}
	check("endpoint", eps["query"], []string{"avg_us", "count", "errors", "max_us", "p50_us", "p95_us", "p99_us"})

	// prune_by_filter is omitted until the first attributed prune.
	b, err := json.Marshal(DBStats{PruneByFilter: map[string]int64{"lo_discount >= 1": 2}})
	if err != nil {
		t.Fatal(err)
	}
	var withPrune map[string]any
	if err := json.Unmarshal(b, &withPrune); err != nil {
		t.Fatal(err)
	}
	check("db with prunes", withPrune, append(slices.Clone(dbKeys), "prune_by_filter"))
}
