package main

import (
	"bytes"
	"context"
	"hash/fnv"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Load shape of the workloads. Reads are closed-loop: each client waits for
// its reply. Appends are open-loop: batches are due on a fixed schedule
// whether or not the previous one has returned.
const (
	readClients  = 2                     // adhoc, sharded
	appendRows   = 500                   // rows per append batch
	appendPeriod = 25 * time.Millisecond // 40 batches/s = 20k rows/s (ingest)
	appendPool   = 64                    // distinct pre-encoded batches, cycled
	probeShare   = 3                     // a read-only workload's append probe takes 1/3 of --seconds
	traceSlice   = time.Second           // traced runs alternate untraced/traced slices
	ramp         = time.Second           // untimed load before the phase starts
)

// readRec is one read as the client saw it.
type readRec struct {
	at     time.Duration // send time since the phase start; negative during the ramp
	lat    time.Duration // round trip
	ok     bool          // 200 with a complete body
	traced bool
	rid    string // server request ID (traced reads)
	body   []byte // whole response (traced reads)
}

// appendRec is one append batch.
type appendRec struct {
	batch int           // index into the append pool
	at    time.Duration // send time since the start of the phase or probe
	lag   time.Duration // send time minus due time
	lat   time.Duration // completion minus due time (open loop) or round trip (probe)
	rtt   time.Duration // round trip
	ok    bool
}

// bodyKey identifies one distinct response of one stream text.
type bodyKey struct {
	text int // index into the stream's reads
	hash uint64
}

// seenBody is a distinct response body and how many reads returned it.
type seenBody struct {
	body  []byte
	count int
}

// phase is one timed phase's client-side record.
type phase struct {
	start  time.Time
	length time.Duration
	traced bool // alternate untraced and traced slices

	reads   []readRec
	appends []appendRec
	// bodies holds every distinct response per stream text when every
	// response is checked (sharded), and the sampled positions'
	// responses otherwise (adhoc, under the key text = position).
	bodies map[bodyKey]*seenBody

	// Runtime counters over the untraced slices (traced runs) or the whole
	// phase (untraced runs).
	untracedAlloc uint64
	untracedGC    uint32
}

// tracedAt reports whether a request sent at offset t carries "trace": true.
func (p *phase) tracedAt(t time.Duration) bool {
	return p.traced && (t/traceSlice)%2 == 1
}

// checkMode says which read responses the oracle checks.
type checkMode int

const (
	checkNone    checkMode = iota // ingest: the state moves under the reads
	checkAll                      // sharded: every response
	checkSampled                  // adhoc: the stream's sampled positions
)

// clientLog is one goroutine's records, merged after the phase.
type clientLog struct {
	reads   []readRec
	appends []appendRec
	bodies  map[bodyKey]*seenBody
}

// runPhase drives readers closed-loop clients over st.reads, plus the
// open-loop appender when withAppender, for length. The readers start ramp
// earlier; their ramp reads are checked but not timed.
func runPhase(ctx context.Context, url string, st *stream, readers int, withAppender bool, mode checkMode, length time.Duration, traced bool) *phase {
	p := &phase{length: length, traced: traced, bodies: make(map[bodyKey]*seenBody)}
	logs := make([]*clientLog, readers+1)
	for i := range logs {
		logs[i] = &clientLog{bodies: make(map[bodyKey]*seenBody)}
	}
	var next atomic.Int64
	stopMem := make(chan struct{})
	memDone := make(chan struct{})

	debug.FreeOSMemory() // no scavenging of the set-ups' memory during the phase
	p.start = time.Now().Add(ramp)
	end := p.start.Add(length)
	go func() {
		defer close(memDone)
		time.Sleep(time.Until(p.start))
		p.sampleMem(stopMem)
	}()
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			p.reader(ctx, url, st, &next, mode, end, l)
		}(logs[i])
	}
	if withAppender {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			p.appender(ctx, url, st, end, l)
		}(logs[readers])
	}
	wg.Wait()
	close(stopMem)
	<-memDone

	for _, l := range logs {
		p.reads = append(p.reads, l.reads...)
		p.appends = append(p.appends, l.appends...)
		for k, b := range l.bodies {
			if have := p.bodies[k]; have != nil {
				have.count += b.count
			} else {
				p.bodies[k] = b
			}
		}
	}
	return p
}

// reader is one closed-loop client: it sends the next stream request as
// soon as the previous reply has been read, until end.
func (p *phase) reader(ctx context.Context, url string, st *stream, next *atomic.Int64, mode checkMode, end time.Time, l *clientLog) {
	c := newClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	url += "/v1/query"
	for {
		sent := time.Now()
		if !sent.Before(end) {
			return
		}
		pos := int(next.Add(1) - 1)
		q := &st.reads[pos%len(st.reads)]
		at := sent.Sub(p.start)
		rec := readRec{at: at, traced: p.tracedAt(at)}
		body := q.body
		if rec.traced {
			body = q.traced
		}
		status, rid, err := postInto(ctx, c, url, body, &buf)
		rec.lat = time.Since(sent)
		rec.ok = err == nil && status == http.StatusOK
		if rec.traced {
			rec.rid = rid
			rec.body = bytes.Clone(buf.Bytes())
		}
		if rec.ok {
			switch {
			case mode == checkAll:
				l.keep(bodyKey{pos % len(st.reads), hashRows(buf.Bytes())}, buf.Bytes())
			case mode == checkSampled && pos < len(st.reads) && st.sampled[pos]:
				l.keep(bodyKey{pos, 0}, buf.Bytes())
			}
		}
		l.reads = append(l.reads, rec)
	}
}

func (l *clientLog) keep(k bodyKey, body []byte) {
	if b := l.bodies[k]; b != nil {
		b.count++
		return
	}
	l.bodies[k] = &seenBody{body: bytes.Clone(body), count: 1}
}

// hashRows hashes a response up to the end of its rows, leaving out the
// trace and the timing that differ between identical results.
func hashRows(body []byte) uint64 {
	for _, tail := range [][]byte{[]byte(`],"trace":`), []byte(`],"row_count":`)} {
		if i := bytes.LastIndex(body, tail); i >= 0 {
			body = body[:i+1]
			break
		}
	}
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// appender is the open-loop stream producer: batch k is due at start +
// k*appendPeriod. On its one connection a slow batch delays the next, and
// every batch is timed from its due time, so stalls count in full.
func (p *phase) appender(ctx context.Context, url string, st *stream, end time.Time, l *clientLog) {
	c := newClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	url += "/v1/tables/lineorder/append"
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k := 0; ; k++ {
		due := p.start.Add(time.Duration(k) * appendPeriod)
		if !due.Before(end) {
			return
		}
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return
			}
		}
		b := k % len(st.appends)
		sent := time.Now()
		status, _, err := postInto(ctx, c, url, st.appends[b].body, &buf)
		done := time.Now()
		l.appends = append(l.appends, appendRec{
			batch: b, at: sent.Sub(p.start), lag: sent.Sub(due), lat: done.Sub(due), rtt: done.Sub(sent),
			ok: err == nil && status == http.StatusOK,
		})
	}
}

// sampleMem accumulates allocation and GC counts over the untraced slices
// until stop closes.
func (p *phase) sampleMem(stop <-chan struct{}) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	prevAlloc, prevGC := ms.TotalAlloc, ms.NumGC
	add := func(untraced bool) {
		runtime.ReadMemStats(&ms)
		if untraced {
			p.untracedAlloc += ms.TotalAlloc - prevAlloc
			p.untracedGC += ms.NumGC - prevGC
		}
		prevAlloc, prevGC = ms.TotalAlloc, ms.NumGC
	}
	if !p.traced {
		<-stop
		add(true)
		return
	}
	ticker := time.NewTicker(traceSlice)
	defer ticker.Stop()
	for slice := time.Duration(0); ; slice++ {
		select {
		case <-ticker.C:
			add(!p.tracedAt(slice * traceSlice))
		case <-stop:
			add(!p.tracedAt(slice * traceSlice))
			return
		}
	}
}

// probeAppends sends batches closed-loop from readClients clients, one
// connection each, for length, for the append metrics of read-only
// workloads. Two clients keep both processors busy, as the read phase did,
// so the figure does not depend on which processor a lone client's requests
// land on.
func probeAppends(ctx context.Context, url string, st *stream, length time.Duration) []appendRec {
	url += "/v1/tables/lineorder/append"
	start := time.Now()
	end := start.Add(length)
	var next atomic.Int64
	logs := make([][]appendRec, readClients)
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func(log *[]appendRec) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var buf bytes.Buffer
			for {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				b := int(next.Add(1)-1) % len(st.appends)
				status, _, err := postInto(ctx, c, url, st.appends[b].body, &buf)
				rtt := time.Since(sent)
				*log = append(*log, appendRec{batch: b, at: sent.Sub(start), lat: rtt, rtt: rtt,
					ok: err == nil && status == http.StatusOK})
			}
		}(&logs[i])
	}
	wg.Wait()
	var recs []appendRec
	for _, l := range logs {
		recs = append(recs, l...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].at < recs[j].at })
	return recs
}
