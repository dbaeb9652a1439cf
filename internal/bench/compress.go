package bench

import (
	"context"
	"fmt"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/storage"
)

func init() {
	register(Experiment{
		ID: "compress",
		Title: "Sealed-segment encodings: storage footprint and scan cost under " +
			"append order vs consolidate-time reordering",
		Run: runCompress,
	})
}

// compressLayout is one physical layout of the same logical SSB dataset.
type compressLayout struct {
	name   string
	sort   bool // cluster by lo_orderdate at consolidation
	encode bool // compress sealed chunks (RLE/FoR)
}

// runCompress measures what the sealed-segment encodings buy and what they
// cost. The same logical lineorder table is materialized three ways —
// append order with plain chunks, append order with encoded chunks, and
// reordered (clustered by lo_orderdate) with encoded chunks — then each
// layout reports its storage footprint, the full 13-query SSB latency, and
// the zone-map pruning of the selective Q1.1 (whose date predicate benefits
// directly from orderdate clustering). Expected shape: encoding alone
// roughly halves fact bytes/row at near-plain scan cost (FoR chunks decode
// once per segment bind, RLE chunks scan run-at-a-time); reordering on top
// turns Q1.1's pruning from none into most segments.
func runCompress(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	layouts := []compressLayout{
		{name: "plain", sort: false, encode: false},
		{name: "encoded", sort: false, encode: true},
		{name: "sorted+encoded", sort: true, encode: true},
	}

	layoutRows := make([][]string, 0, len(layouts))
	queryRows := make([][]string, 0, len(layouts))
	var plainBytesPerRow float64
	for _, l := range layouts {
		// Regenerate per layout: identical seed, independent physical copy.
		data := ssbData(cfg)
		fact := data.Lineorder
		n := fact.NumRows()
		segRows := min(max(n/16, 256), storage.MaxSegmentRows)
		if err := fact.SetSegmentTarget(segRows); err != nil {
			return nil, err
		}
		if l.sort {
			if err := fact.SetSortKeys("lo_orderdate"); err != nil {
				return nil, err
			}
			if _, err := storage.Consolidate(data.DB, fact); err != nil {
				return nil, err
			}
		}
		if l.encode {
			if err := fact.SetSealedEncodings(true); err != nil {
				return nil, err
			}
		}

		comp := fact.Compression()
		bytesPerRow := float64(comp.PhysicalBytes) / float64(n)
		if l.name == "plain" {
			plainBytesPerRow = bytesPerRow
		}
		ratio := plainBytesPerRow / bytesPerRow
		layoutRows = append(layoutRows, []string{
			l.name,
			fmt.Sprintf("%.1f", bytesPerRow),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%d", comp.EncodedChunks),
			fmt.Sprintf("%d", comp.TotalChunks),
		})

		// Serve through the db layer so repeated executions reuse cached
		// plans — and with them the per-(segment, epoch) bindings where
		// FoR chunks decode. Cold core.Engine.Run would re-decode every
		// encoded chunk per query, which is not the serving-path cost.
		served, err := db.Open(data.DB, core.Options{Variant: core.Auto, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}

		// Q1.1 pruning: its d_year predicate reaches the fact through
		// lo_orderdate, so clustering by orderdate tightens exactly the
		// zone maps its probe consults.
		var st core.Stats
		p11, err := served.Prepare(ssb.Q1_1())
		if err != nil {
			return nil, err
		}
		d11, err := best(cfg.Runs, func() error {
			st = core.Stats{}
			_, err := p11.ExecStats(context.Background(), &st)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s on Q1.1: %w", l.name, err)
		}

		// Full 13-query sweep, minimum-of-runs per query, averaged.
		var totalNS float64
		queries := ssb.Queries()
		for _, q := range queries {
			p, err := served.Prepare(q)
			if err != nil {
				return nil, err
			}
			d, err := best(cfg.Runs, func() error {
				_, err := p.Exec(context.Background())
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", l.name, q.Name, err)
			}
			totalNS += float64(d.Nanoseconds())
		}
		queryRows = append(queryRows, []string{
			l.name,
			ms(d11),
			fmt.Sprintf("%d", st.SegmentsPruned),
			fmt.Sprintf("%d", st.SegmentsTotal),
			fmt.Sprintf("%d", st.EncodedSegments),
			fmt.Sprintf("%.2f", totalNS/float64(len(queries))/1e6),
		})
	}

	title := fmt.Sprintf("SSB SF=%g, workers=%d, sort key lo_orderdate", cfg.SF, cfg.Workers)
	return []*Report{
		{
			ID:      "compress",
			Title:   title,
			Headers: []string{"layout", "fact bytes/row", "vs plain", "encoded chunks", "chunks"},
			Rows:    layoutRows,
			Notes: []string{
				"chunks are encoded only when the compressed form is at most half the plain size",
				"floats and strings always stay plain; dict codes may encode as RLE",
			},
		},
		{
			ID:      "compress-scan",
			Title:   title,
			Headers: []string{"layout", "Q1.1 ms", "Q1.1 pruned", "segments", "encoded segs", "all-13 avg ms"},
			Rows:    queryRows,
			Notes: []string{
				"Q1.1 probes the date dimension through lo_orderdate: clustering by the sort key " +
					"is what lets its zone maps prune",
			},
		},
	}, nil
}
