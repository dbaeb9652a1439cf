package storage

import (
	"fmt"
	"sync"
)

// Table is an array family: a named set of equally long, aligned columns.
// The array index is the primary key; no explicit key column exists. A
// foreign-key column (always Int32) stores array indexes of its referenced
// table, which is the array index reference (AIR) mechanism that makes the
// whole schema a virtual universal table.
type Table struct {
	// Name is the table name, unique within a Database.
	Name string

	names    []string
	cols     map[string]Column
	fks      map[string]*Table
	colTypes map[string]Type
	colDicts map[string]*Dict

	nrows int

	// Lazy deletion state (§4.4): del marks out-of-date tuples, free lists
	// reusable slots of deleted tuples. Flat mode only; segmented tables
	// keep per-segment deletion bitmaps and never reuse slots.
	del  *Bitmap
	free []int32

	// shared marks columns pinned by live snapshots; an in-place write to
	// a shared column clones it first (column-granularity copy-on-write).
	// Flat mode only; segments carry their own shared marks.
	shared map[string]bool // guarded by mu
	pins   int             // guarded by mu

	// Segmented storage (segment.go): sealed immutable segments plus one
	// mutable tail, active when segTarget > 0.
	segTarget int
	segs      []*Segment
	tail      *Segment
	nextSegID uint64

	// Sealed-segment physical tuning (encoding.go, consolidate.go):
	// sortKeys orders fact rows at consolidation time; encodeSealed
	// compresses sealed chunks (RLE / frame-of-reference) at seal time.
	sortKeys     []string
	encodeSealed bool

	// viewSegs, when non-nil, marks this table as a frozen snapshot view
	// of a segmented table: reads go through these captured segment views
	// and the table must not be mutated.
	viewSegs []SegView

	// version counts data mutations (insert, delete, update,
	// consolidation). Because pinned columns are copy-on-write, two reads
	// of the table at the same version observe identical arrays.
	// schemaVersion counts structural changes (columns, foreign keys,
	// physical re-segmentation); plan caches invalidate on schemaVersion
	// always, and on version only for tables whose arrays the plan
	// captured directly (flat tables and dimensions) — segmented fact
	// appends advance version without invalidating plans, because plans
	// bind fact arrays per segment at execution time.
	version       uint64
	schemaVersion uint64

	// mu serializes writers. Readers use Snapshot for isolation; reading
	// the live table concurrently with writers is not synchronized.
	mu sync.Mutex
}

// NewTable returns an empty table.
func NewTable(name string) *Table {
	return &Table{
		Name:     name,
		cols:     make(map[string]Column),
		fks:      make(map[string]*Table),
		colTypes: make(map[string]Type),
		colDicts: make(map[string]*Dict),
	}
}

// AddColumn adds a named column. The first column fixes the row count; every
// later column must match it. Declare all columns before segmenting the
// table: adding columns to a segmented table is not supported.
func (t *Table) AddColumn(name string, c Column) error {
	if _, dup := t.colTypes[name]; dup {
		return fmt.Errorf("storage: table %s: duplicate column %s", t.Name, name)
	}
	if t.Segmented() {
		return fmt.Errorf("storage: table %s: cannot add column %s to a segmented table", t.Name, name)
	}
	if len(t.names) == 0 {
		t.nrows = c.Len()
	} else if c.Len() != t.nrows {
		return fmt.Errorf("storage: table %s: column %s has %d rows, want %d",
			t.Name, name, c.Len(), t.nrows)
	}
	t.names = append(t.names, name)
	t.cols[name] = c
	t.colTypes[name] = c.Type()
	if dc, ok := c.(*DictCol); ok {
		t.colDicts[name] = dc.Dict
	}
	t.schemaVersion++
	return nil
}

// MustAddColumn is AddColumn that panics on error; intended for generators
// and tests where the schema is static.
func (t *Table) MustAddColumn(name string, c Column) {
	if err := t.AddColumn(name, c); err != nil {
		panic(err)
	}
}

// Column returns the named column, or nil if absent. The lookup is safe
// beside writers, whose copy-on-write replaces map entries under mu (query
// routing resolves columns on live tables); reading the returned live
// column is not, so readers use a Snapshot for that.
func (t *Table) Column(name string) Column {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cols[name]
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string { return t.names }

// NumRows returns the number of physical rows, including lazily deleted ones.
func (t *Table) NumRows() int { return t.nrows }

// NumLive returns the number of rows not marked deleted.
func (t *Table) NumLive() int {
	if t.viewSegs != nil || t.Segmented() {
		live := 0
		for _, sv := range t.segViewsUnsync() {
			live += sv.N
			if sv.Del != nil {
				live -= sv.Del.Count()
			}
		}
		return live
	}
	if t.del == nil {
		return t.nrows
	}
	return t.nrows - t.del.Count()
}

// segViewsUnsync returns segment views without taking the mutex; for frozen
// snapshot tables the views are immutable, and for live tables callers are
// maintenance paths that already serialize with writers.
func (t *Table) segViewsUnsync() []SegView {
	if t.viewSegs != nil {
		return t.viewSegs
	}
	out := make([]SegView, 0, len(t.segs)+1)
	for _, s := range t.allSegsLocked() {
		out = append(out, segViewLocked(s))
	}
	return out
}

// AddFK declares column col as a foreign key referencing ref. The column
// must exist and be an Int32 column whose values are array indexes of ref.
func (t *Table) AddFK(col string, ref *Table) error {
	typ, ok := t.colTypes[col]
	if !ok {
		return fmt.Errorf("storage: table %s: no column %s", t.Name, col)
	}
	if typ != TInt32 {
		return fmt.Errorf("storage: table %s: FK column %s must be int32, got %s",
			t.Name, col, typ)
	}
	t.fks[col] = ref
	t.schemaVersion++
	return nil
}

// MustAddFK is AddFK that panics on error.
func (t *Table) MustAddFK(col string, ref *Table) {
	if err := t.AddFK(col, ref); err != nil {
		panic(err)
	}
}

// FK returns the table referenced by column col, or nil.
func (t *Table) FK(col string) *Table { return t.fks[col] }

// FKs returns a copy of the FK map (column name to referenced table).
func (t *Table) FKs() map[string]*Table {
	m := make(map[string]*Table, len(t.fks))
	for k, v := range t.fks {
		m[k] = v
	}
	return m
}

// Version returns the table's data mutation counter; it is an alias of
// DataVersion kept for backward compatibility.
func (t *Table) Version() uint64 { return t.DataVersion() }

// DataVersion returns the data mutation counter. It increases on every
// insert, delete, update, and consolidation; snapshots taken at equal
// versions see identical data. Advancing DataVersion invalidates snapshots
// (of course) but, for segmented tables, NOT compiled plans: plans bind
// segmented arrays at execution time.
func (t *Table) DataVersion() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// SchemaVersion returns the structural mutation counter: it increases when
// columns or foreign keys are declared and when the table is physically
// re-segmented. Plan caches invalidate on any SchemaVersion change.
func (t *Table) SchemaVersion() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.schemaVersion
}

// Pins returns the number of live snapshots currently pinning the table.
func (t *Table) Pins() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pins
}

// Deleted returns the deletion vector, or nil if no row was ever deleted.
// Segmented tables keep per-segment deletion bitmaps (see SegViews) and
// report nil here.
func (t *Table) Deleted() *Bitmap { return t.del }

// IsDeleted reports whether row i is marked deleted.
func (t *Table) IsDeleted(i int) bool {
	if t.viewSegs != nil || t.Segmented() {
		for _, sv := range t.segViewsUnsync() {
			if i >= sv.Base && i < sv.Base+sv.N {
				return sv.Del != nil && sv.Del.Get(i-sv.Base)
			}
		}
		return false
	}
	return t.del != nil && t.del.Get(i)
}

// ValidateAIR checks that every foreign-key value is a valid, live index of
// the referenced table. This is the core storage invariant of A-Store.
func (t *Table) ValidateAIR() error {
	for col, ref := range t.fks {
		err := t.forEachInt32(col, func(chunk []int32, base int) error {
			for i, v := range chunk {
				if t.IsDeleted(base + i) {
					continue
				}
				if v < 0 || int(v) >= ref.NumRows() {
					return fmt.Errorf("storage: %s.%s[%d]=%d out of range for %s (%d rows)",
						t.Name, col, base+i, v, ref.Name, ref.NumRows())
				}
				if ref.IsDeleted(int(v)) {
					return fmt.Errorf("storage: %s.%s[%d]=%d references deleted row of %s",
						t.Name, col, base+i, v, ref.Name)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachInt32 visits the chunks of an int32 column with their global base
// offsets: one chunk for flat tables, one per segment otherwise.
func (t *Table) forEachInt32(col string, fn func(chunk []int32, base int) error) error {
	if t.viewSegs != nil || t.Segmented() {
		for _, sv := range t.segViewsUnsync() {
			c := sv.Cols[col]
			if c == nil || c.Type() != TInt32 {
				return fmt.Errorf("storage: table %s: column %s is not int32", t.Name, col)
			}
			if err := fn(int32ChunkValues(c, sv.N), sv.Base); err != nil {
				return err
			}
		}
		return nil
	}
	c, ok := t.cols[col].(*Int32Col)
	if !ok {
		return fmt.Errorf("storage: table %s: column %s is not int32", t.Name, col)
	}
	return fn(c.V, 0)
}

// MemBytes estimates the resident size of the table's arrays in bytes
// (dictionaries counted once; Go string headers counted, contents estimated).
func (t *Table) MemBytes() int64 {
	var b int64
	seen := make(map[*Dict]bool)
	if t.viewSegs != nil || t.Segmented() {
		for _, sv := range t.segViewsUnsync() {
			for _, name := range t.names {
				b += colMemBytes(sv.Cols[name], seen)
			}
		}
		return b
	}
	for _, name := range t.names {
		b += colMemBytes(t.cols[name], seen)
	}
	return b
}

func colMemBytes(c Column, seen map[*Dict]bool) int64 {
	var b int64
	switch c := c.(type) {
	case *Int32Col:
		b += int64(len(c.V)) * 4
	case *Int64Col:
		b += int64(len(c.V)) * 8
	case *Float64Col:
		b += int64(len(c.V)) * 8
	case *StrCol:
		for _, s := range c.V {
			b += int64(len(s)) + 16
		}
	case *DictCol:
		b += int64(len(c.Codes)) * 4
		if !seen[c.Dict] {
			seen[c.Dict] = true
			for _, s := range c.Dict.Values() {
				b += int64(len(s)) + 16
			}
		}
	case *RLEDictCol:
		b += int64(encodedBytes(c, c.Len()))
		if !seen[c.Dict] {
			seen[c.Dict] = true
			for _, s := range c.Dict.Values() {
				b += int64(len(s)) + 16
			}
		}
	case *RLEInt32Col, *RLEInt64Col, *FoRInt32Col, *FoRInt64Col:
		b += int64(encodedBytes(c, c.Len()))
	}
	return b
}

// SetSortKeys configures the columns Consolidate orders fact rows by before
// re-sealing segments (attribute-value reordering: clustering tightens zone
// maps and creates the runs RLE needs). Keys must be integer-valued —
// int32/int64 values, AIR foreign keys, or dictionary codes; strings and
// floats are rejected. Passing no columns clears the keys.
func (t *Table) SetSortKeys(cols ...string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range cols {
		typ, ok := t.colTypes[c]
		if !ok {
			return fmt.Errorf("storage: table %s: no sort-key column %s", t.Name, c)
		}
		if typ == TString || typ == TFloat64 {
			return fmt.Errorf("storage: table %s: sort-key column %s has non-integer type %s", t.Name, c, typ)
		}
	}
	t.sortKeys = append([]string(nil), cols...)
	return nil
}

// SortKeys returns the configured consolidation sort keys.
func (t *Table) SortKeys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.sortKeys...)
}

// SetSealedEncodings toggles compressed sealed-chunk encodings. Turning it
// on re-encodes existing sealed segments in place (and every segment sealed
// afterwards); turning it off decodes them back to plain arrays. Chunk
// replacement bumps segment epochs so cached per-segment plan bindings
// rebind; it fails while snapshots pin the table because pinned readers
// hold the current chunk headers.
func (t *Table) SetSealedEncodings(on bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.encodeSealed == on {
		return nil
	}
	if t.pins > 0 {
		return fmt.Errorf("storage: table %s: cannot change sealed encodings while pinned by %d snapshot(s)", t.Name, t.pins)
	}
	t.encodeSealed = on
	for _, s := range t.segs {
		changed := false
		for name, c := range s.cols {
			if on {
				if ec, ok := EncodeChunk(c, s.n); ok {
					s.cols[name] = ec
					changed = true
				}
			} else if ChunkEncoding(c) != EncPlain {
				s.cols[name] = cloneChunk(c, s.cap)
				changed = true
			}
		}
		if changed {
			s.epoch++
		}
	}
	t.version++
	return nil
}

// SealedEncodings reports whether sealed chunks are encoded at seal time.
func (t *Table) SealedEncodings() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.encodeSealed
}

// Database is a catalog of tables; it exists so that operations that must see
// all referrers of a table (consolidation, AIR validation) can find them.
type Database struct {
	tables []*Table
	byName map[string]*Table
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{byName: make(map[string]*Table)}
}

// Add registers a table. Adding two tables with one name is an error.
func (db *Database) Add(t *Table) error {
	if _, dup := db.byName[t.Name]; dup {
		return fmt.Errorf("storage: duplicate table %s", t.Name)
	}
	db.tables = append(db.tables, t)
	db.byName[t.Name] = t
	return nil
}

// MustAdd is Add that panics on error.
func (db *Database) MustAdd(t *Table) {
	if err := db.Add(t); err != nil {
		panic(err)
	}
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table { return db.byName[name] }

// Tables returns the registered tables in insertion order.
func (db *Database) Tables() []*Table { return db.tables }

// RefEdge identifies a foreign-key column of From referencing some table.
type RefEdge struct {
	From *Table
	Col  string
}

// Referrers returns every FK column in the database that references t.
func (db *Database) Referrers(t *Table) []RefEdge {
	var out []RefEdge
	for _, tab := range db.tables {
		for col, ref := range tab.fks {
			if ref == t {
				out = append(out, RefEdge{From: tab, Col: col})
			}
		}
	}
	return out
}

// ValidateAIR validates the AIR invariant for every table.
func (db *Database) ValidateAIR() error {
	for _, t := range db.tables {
		if err := t.ValidateAIR(); err != nil {
			return err
		}
	}
	return nil
}
