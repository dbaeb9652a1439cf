package server

import (
	"sync/atomic"
	"time"

	"astore/internal/db"
	"astore/internal/obs"
	"astore/internal/shard"
)

// endpointMetrics are cumulative per-endpoint serving counters, updated
// lock-free on every request by the instrumentation wrapper. lat is the
// endpoint's latency histogram in the shared registry (set once at mount
// time, before any request): it holds the request count and summed wall
// time, and /v1/stats quantiles and /metrics buckets come from the same
// observations.
type endpointMetrics struct {
	errors atomic.Int64 // responses with status >= 400
	maxNS  atomic.Int64 // slowest request
	lat    *obs.Histogram
	errsC  *obs.Counter
}

func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	if failed {
		m.errors.Add(1)
		m.errsC.Inc()
	}
	m.lat.Observe(d.Seconds())
	ns := d.Nanoseconds()
	for {
		cur := m.maxNS.Load()
		if ns <= cur || m.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// EndpointStats is the JSON rendering of one endpoint's counters. The
// quantiles are estimated from the endpoint's log-bucketed latency
// histogram (the same one /metrics exposes).
type EndpointStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	AvgUS  float64 `json:"avg_us"`
	MaxUS  float64 `json:"max_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

func (m *endpointMetrics) snapshot() EndpointStats {
	s := EndpointStats{
		Count:  m.lat.Count(),
		Errors: m.errors.Load(),
		MaxUS:  float64(m.maxNS.Load()) / 1e3,
	}
	if s.Count > 0 {
		s.AvgUS = m.lat.Sum() / float64(s.Count) * 1e6
		s.P50US = m.lat.Quantile(0.50) * 1e6
		s.P95US = m.lat.Quantile(0.95) * 1e6
		s.P99US = m.lat.Quantile(0.99) * 1e6
	}
	return s
}

// AdmissionStats is the JSON rendering of the admission controller's state.
type AdmissionStats struct {
	MaxInFlight int   `json:"max_in_flight"`
	MaxQueue    int   `json:"max_queue"`
	InFlight    int   `json:"in_flight"`
	Waiting     int   `json:"waiting"`
	Admitted    int64 `json:"admitted"`
	Queued      int64 `json:"queued"`
	Rejected    int64 `json:"rejected"`
}

// DBStats is the "db" block of /v1/stats: the DB's plan-cache and serving
// counters, served as db.Stats renders them.
type DBStats = db.Stats

// TableStats is the per-table block of /v1/stats: the row count and
// version counters of one table as observed by a transient snapshot.
type TableStats struct {
	Rows int64 `json:"rows"`
	// DataVersion counts row mutations (appends, updates, deletes); plan
	// freshness checks compare against it.
	DataVersion uint64 `json:"data_version"`
	// SchemaVersion counts structural mutations (columns, FKs,
	// re-segmentation).
	SchemaVersion uint64 `json:"schema_version"`
	// Segments is the total segment count (sealed + tail) for segmented
	// tables, 1 for flat tables.
	Segments int `json:"segments"`
	Sealed   int `json:"sealed"`
	// LogicalBytes and PhysicalBytes report the decoded vs. stored size of
	// the table's live chunks; they differ when sealed-segment encodings
	// are enabled. EncodedChunks of Chunks are stored compressed.
	LogicalBytes  int64 `json:"logical_bytes"`
	PhysicalBytes int64 `json:"physical_bytes"`
	EncodedChunks int   `json:"encoded_chunks"`
	Chunks        int   `json:"chunks"`
}

// Stats is the GET /v1/stats response body.
type Stats struct {
	UptimeMS      int64                    `json:"uptime_ms"`
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Panics        int64                    `json:"panics"`
	SlowQueries   int64                    `json:"slow_queries"`
	DB            DBStats                  `json:"db"`
	Admission     AdmissionStats           `json:"admission"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Tables        map[string]TableStats    `json:"tables"`
	// Shard is present on coordinators: cumulative scatter-gather counters.
	Shard *shard.Stats `json:"shard,omitempty"`
}
