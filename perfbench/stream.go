package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"astore/internal/datagen/ssb"
	"astore/internal/storage"
)

// stream holds every request a run sends. It is built from the seed before
// the timed phase, so the generator costs neither CPU nor heap while the
// clock runs; readers and the appender only index into it.
type stream struct {
	// reads are the query requests, cycled by the readers in order.
	reads []readReq
	// sampled marks the read positions whose responses the oracle checks
	// (adhoc); repeated-text streams check every response instead.
	sampled map[int]bool
	// appends is the fixed pool of append batches, cycled by the appender.
	appends []appendBatch
}

// readReq is one pre-encoded POST /v1/query body in both trace modes.
type readReq struct {
	name   string // SSB template name, e.g. "Q2.1"
	sql    string
	body   []byte
	traced []byte
}

// appendBatch is one pre-encoded POST /v1/tables/lineorder/append body and
// the generated lineorder rows it copies, so the oracle can replay it.
type appendBatch struct {
	rows []int
	body []byte
}

// streamBuilder assembles a stream step by step from one seeded source:
//
//	st := newStream(seed, data).repeated().appends(64, 500).build()
type streamBuilder struct {
	rng  *rand.Rand
	data *ssb.Data
	st   stream
}

func newStream(seed int64, data *ssb.Data) *streamBuilder {
	return &streamBuilder{rng: rand.New(rand.NewSource(seed)), data: data}
}

// repeated adds the 13 SSB texts in a seeded order; readers cycle them.
func (b *streamBuilder) repeated() *streamBuilder {
	names := ssbNames()
	b.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	texts := ssb.QueriesSQL()
	for _, n := range names {
		b.st.reads = append(b.st.reads, newReadReq(n, texts[n]))
	}
	return b
}

// adhoc adds n texts from the 13 SSB templates with constants drawn from
// the SSB domains, and marks about one position in sampleEvery for the
// oracle.
func (b *streamBuilder) adhoc(n, sampleEvery int) *streamBuilder {
	dom := newDomains(b.data)
	off := b.rng.Intn(sampleEvery)
	b.st.sampled = make(map[int]bool)
	for i := 0; i < n; i++ {
		t := adhocTemplates[b.rng.Intn(len(adhocTemplates))]
		b.st.reads = append(b.st.reads, newReadReq(t.name, t.gen(b.rng, dom)))
		if i%sampleEvery == off {
			b.st.sampled[i] = true
		}
	}
	return b
}

// appends adds a pool of n batches of rows lineorder rows each, sampled by
// seeded index from the generated lineorder so appended rows keep matching
// the queries. It must run before db.Open segments the fact table.
func (b *streamBuilder) appends(n, rows int) *streamBuilder {
	lo := b.data.Lineorder
	names := lo.ColumnNames()
	cols := make([][]int64, len(names))
	for i, name := range names {
		switch c := lo.Column(name).(type) {
		case *storage.Int32Col:
			cols[i] = make([]int64, len(c.V))
			for r, v := range c.V {
				cols[i][r] = int64(v)
			}
		case *storage.Int64Col:
			cols[i] = c.V
		default:
			panic(fmt.Sprintf("perfbench: lineorder column %s has type %T", name, c))
		}
	}
	for k := 0; k < n; k++ {
		batch := appendBatch{rows: make([]int, rows)}
		buf := []byte(`{"rows":[`)
		for j := range batch.rows {
			r := b.rng.Intn(lo.NumRows())
			batch.rows[j] = r
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '{')
			for i, name := range names {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendQuote(buf, name)
				buf = append(buf, ':')
				buf = strconv.AppendInt(buf, cols[i][r], 10)
			}
			buf = append(buf, '}')
		}
		batch.body = append(buf, "]}"...)
		b.st.appends = append(b.st.appends, batch)
	}
	return b
}

// build returns the stream; it keeps no reference to the builder's data.
func (b *streamBuilder) build() *stream {
	st := b.st
	return &st
}

func newReadReq(name, text string) readReq {
	body, _ := json.Marshal(struct {
		SQL string `json:"sql"`
	}{text})
	traced, _ := json.Marshal(struct {
		SQL   string `json:"sql"`
		Trace bool   `json:"trace"`
	}{text, true})
	return readReq{name: name, sql: text, body: body, traced: traced}
}

// ssbNames lists the 13 SSB query names in order.
func ssbNames() []string {
	var names []string
	for n := range ssb.QueriesSQL() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// domains are the constant pools the adhoc templates draw from: the fixed
// SSB domains plus values read from the generated dimensions.
type domains struct {
	regions, nations, cities, categories, brands []string
}

func newDomains(data *ssb.Data) *domains {
	d := &domains{}
	dict := func(t *storage.Table, col string) []string {
		return append([]string(nil), t.Column(col).(*storage.DictCol).Dict.Values()...)
	}
	d.regions = dict(data.Customer, "c_region")
	d.nations = dict(data.Customer, "c_nation")
	d.cities = dict(data.Customer, "c_city")
	d.categories = dict(data.Part, "p_category")
	d.brands = dict(data.Part, "p_brand1")
	for _, s := range [][]string{d.regions, d.nations, d.cities, d.categories, d.brands} {
		sort.Strings(s)
	}
	return d
}

func pick(r *rand.Rand, s []string) string { return s[r.Intn(len(s))] }

// pickN draws n distinct values, in domain order.
func pickN(r *rand.Rand, s []string, n int) []string {
	idx := r.Perm(len(s))[:n]
	sort.Ints(idx)
	out := make([]string, n)
	for i, j := range idx {
		out[i] = s[j]
	}
	return out
}

func quoteList(vals []string) string {
	q := make([]string, len(vals))
	for i, v := range vals {
		q[i] = "'" + v + "'"
	}
	return strings.Join(q, ", ")
}

var monthNames = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

func year(r *rand.Rand) int { return 1992 + r.Intn(7) }

// yearRange draws lo <= hi within 1992..1998.
func yearRange(r *rand.Rand) (int, int) {
	lo, hi := year(r), year(r)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// brandRange draws two brands of one category, lo <= hi.
func brandRange(r *rand.Rand, d *domains) (string, string) {
	cat := pick(r, d.categories)
	var in []string
	for _, b := range d.brands {
		if strings.HasPrefix(b, cat) && len(b) > len(cat) {
			in = append(in, b)
		}
	}
	lo, hi := pick(r, in), pick(r, in)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

const (
	selQ1 = "SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date WHERE lo_orderdate = d_datekey"
	selQ2 = "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue FROM lineorder, date, part, supplier " +
		"WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey"
	groupQ2 = " GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1"
	fromQ3  = " FROM customer, lineorder, supplier, date " +
		"WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey"
	fromQ4 = " FROM date, customer, supplier, part, lineorder WHERE lo_custkey = c_custkey " +
		"AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey"
)

// adhocTemplates are the 13 SSB query shapes with their constants drawn
// from year, yearmonth, week, discount and quantity windows,
// region/nation/city and category/brand.
var adhocTemplates = []struct {
	name string
	gen  func(r *rand.Rand, d *domains) string
}{
	{"Q1.1", func(r *rand.Rand, d *domains) string {
		disc := 1 + r.Intn(8)
		return fmt.Sprintf("%s AND d_year = %d AND lo_discount BETWEEN %d AND %d AND lo_quantity < %d",
			selQ1, year(r), disc, disc+2, 2+r.Intn(49))
	}},
	{"Q1.2", func(r *rand.Rand, d *domains) string {
		disc, qty := 1+r.Intn(8), 1+r.Intn(41)
		return fmt.Sprintf("%s AND d_yearmonthnum = %d AND lo_discount BETWEEN %d AND %d AND lo_quantity BETWEEN %d AND %d",
			selQ1, year(r)*100+1+r.Intn(12), disc, disc+2, qty, qty+9)
	}},
	{"Q1.3", func(r *rand.Rand, d *domains) string {
		disc, qty := 1+r.Intn(8), 1+r.Intn(41)
		return fmt.Sprintf("%s AND d_weeknuminyear = %d AND d_year = %d AND lo_discount BETWEEN %d AND %d AND lo_quantity BETWEEN %d AND %d",
			selQ1, 1+r.Intn(52), year(r), disc, disc+2, qty, qty+9)
	}},
	{"Q2.1", func(r *rand.Rand, d *domains) string {
		return fmt.Sprintf("%s AND p_category = '%s' AND s_region = '%s'%s",
			selQ2, pick(r, d.categories), pick(r, d.regions), groupQ2)
	}},
	{"Q2.2", func(r *rand.Rand, d *domains) string {
		lo, hi := brandRange(r, d)
		return fmt.Sprintf("%s AND p_brand1 BETWEEN '%s' AND '%s' AND s_region = '%s'%s",
			selQ2, lo, hi, pick(r, d.regions), groupQ2)
	}},
	{"Q2.3", func(r *rand.Rand, d *domains) string {
		return fmt.Sprintf("%s AND p_brand1 = '%s' AND s_region = '%s'%s",
			selQ2, pick(r, d.brands), pick(r, d.regions), groupQ2)
	}},
	{"Q3.1", func(r *rand.Rand, d *domains) string {
		lo, hi := yearRange(r)
		return fmt.Sprintf("SELECT c_nation, s_nation, d_year, sum(lo_revenue) AS revenue%s AND c_region = '%s' AND s_region = '%s' "+
			"AND d_year BETWEEN %d AND %d GROUP BY c_nation, s_nation, d_year ORDER BY d_year ASC, revenue DESC",
			fromQ3, pick(r, d.regions), pick(r, d.regions), lo, hi)
	}},
	{"Q3.2", func(r *rand.Rand, d *domains) string {
		lo, hi := yearRange(r)
		return fmt.Sprintf("SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue%s AND c_nation = '%s' AND s_nation = '%s' "+
			"AND d_year BETWEEN %d AND %d GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC",
			fromQ3, pick(r, d.nations), pick(r, d.nations), lo, hi)
	}},
	{"Q3.3", func(r *rand.Rand, d *domains) string {
		lo, hi := yearRange(r)
		cities := quoteList(pickN(r, d.cities, 2))
		return fmt.Sprintf("SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue%s AND c_city IN (%s) AND s_city IN (%s) "+
			"AND d_year BETWEEN %d AND %d GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC",
			fromQ3, cities, cities, lo, hi)
	}},
	{"Q3.4", func(r *rand.Rand, d *domains) string {
		cities := quoteList(pickN(r, d.cities, 2))
		return fmt.Sprintf("SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue%s AND c_city IN (%s) AND s_city IN (%s) "+
			"AND d_yearmonth = '%s%d' GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC",
			fromQ3, cities, cities, monthNames[r.Intn(12)], year(r))
	}},
	{"Q4.1", func(r *rand.Rand, d *domains) string {
		return fmt.Sprintf("SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit%s AND c_region = '%s' "+
			"AND s_region = '%s' AND p_mfgr IN (%s) GROUP BY d_year, c_nation ORDER BY d_year, c_nation",
			fromQ4, pick(r, d.regions), pick(r, d.regions), quoteList(mfgrs(r)))
	}},
	{"Q4.2", func(r *rand.Rand, d *domains) string {
		y := 1992 + r.Intn(6)
		return fmt.Sprintf("SELECT d_year, s_nation, p_category, sum(lo_revenue - lo_supplycost) AS profit%s "+
			"AND c_region = '%s' AND s_region = '%s' AND d_year IN (%d, %d) AND p_mfgr IN (%s) "+
			"GROUP BY d_year, s_nation, p_category ORDER BY d_year, s_nation, p_category",
			fromQ4, pick(r, d.regions), pick(r, d.regions), y, y+1, quoteList(mfgrs(r)))
	}},
	{"Q4.3", func(r *rand.Rand, d *domains) string {
		y := 1992 + r.Intn(6)
		return fmt.Sprintf("SELECT d_year, s_city, p_brand1, sum(lo_revenue - lo_supplycost) AS profit%s "+
			"AND c_region = '%s' AND s_nation = '%s' AND d_year IN (%d, %d) AND p_category = '%s' "+
			"GROUP BY d_year, s_city, p_brand1 ORDER BY d_year, s_city, p_brand1",
			fromQ4, pick(r, d.regions), pick(r, d.nations), y, y+1, pick(r, d.categories))
	}},
}

// mfgrs draws two or three of the five SSB manufacturers.
func mfgrs(r *rand.Rand) []string {
	all := []string{"MFGR#1", "MFGR#2", "MFGR#3", "MFGR#4", "MFGR#5"}
	return pickN(r, all, 2+r.Intn(2))
}
