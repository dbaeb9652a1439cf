package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary database image format (little-endian throughout):
//
//	magic "ASTORDB3"
//	u32 dictCount, then per dictionary: u32 valueCount, values (u32 len + bytes)
//	u32 tableCount, then per table:
//	    name, u32 rowCount
//	    u32 segmentTarget (0 = flat table)
//	    u32 sealedSegmentCount, then per sealed segment: u32 rowCount
//	        (the segment manifest; the tail holds the remaining rows)
//	    u32 colCount
//	    per column: name, u8 type [+ u32 dictionary index for dict columns],
//	    then one tagged chunk per segment (flat tables: one chunk total):
//	        u8 encoding tag (0 = plain, 1 = RLE, 2 = FoR), payload:
//	        plain int32/int64/float64: fixed-width array
//	        plain string:              per-row u32 len + bytes
//	        plain dict:                code array (u32 each)
//	        RLE:  u32 runCount, run values (u32 or u64 by type), then
//	              cumulative exclusive run ends (u32 each)
//	        FoR:  u64 base, u8 bit width, u32 rowCount, u32 wordCount,
//	              packed words (u64 each)
//	    u8 hasDeletionVector [+ bitmap words]
//	    u32 fkCount, then per FK: column name, referenced table name
//
// Sealed chunks persist in their in-memory encoding, so an image written
// by a table with sealed-segment encodings restores bit-identical encoded
// chunks (zone maps are recomputed, not stored). Two older formats are
// still read: "ASTORDB2" (same manifest, untagged flat column payloads,
// re-chunked on load) and "ASTORDB1" (no segmentTarget/manifest fields).
//
// Shared dictionaries serialize once and rewire on load, preserving the
// code stability that lets tables share them. The slot free list is not
// stored; it is derivable from the deletion vector.
const (
	persistMagic   = "ASTORDB3"
	persistMagicV2 = "ASTORDB2"
	persistMagicV1 = "ASTORDB1"
)

// maxLoadCount bounds element counts read from an image, as a defense
// against corrupt or hostile files.
const maxLoadCount = 1 << 31

// maxPrealloc caps the up-front allocation sized by a length field read
// from an image: slices start with room for at most this many elements and
// grow as elements actually arrive, so a forged length costs no more
// memory than the bytes present.
const maxPrealloc = 1 << 16

// prealloc returns an empty slice with room for n elements, capped at
// maxPrealloc.
func prealloc[T any](n int) []T { return make([]T, 0, min(n, maxPrealloc)) }

// Save writes the database as a binary image. The writer is buffered
// internally; callers own closing the underlying file.
func (db *Database) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}

	// Collect shared dictionaries in first-appearance order.
	var dicts []*Dict
	dictID := make(map[*Dict]uint32)
	for _, t := range db.tables {
		for _, name := range t.names {
			if t.colTypes[name] == TDict {
				d := t.colDicts[name]
				if _, seen := dictID[d]; !seen {
					dictID[d] = uint32(len(dicts))
					dicts = append(dicts, d)
				}
			}
		}
	}
	writeU32(bw, uint32(len(dicts)))
	for _, d := range dicts {
		writeU32(bw, uint32(d.Len()))
		for _, s := range d.Values() {
			writeStr(bw, s)
		}
	}

	writeU32(bw, uint32(len(db.tables)))
	for _, t := range db.tables {
		// Hold the table's writer mutex for the duration of its record so
		// the manifest, column payloads, and deletion bits describe one
		// consistent state even while writers keep mutating other tables.
		t.mu.Lock()
		err := saveTableLocked(bw, t, dictID)
		t.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// saveTableLocked writes one table record. Segment chunks stream directly
// into the flat column payload (chunks concatenate in row order — no
// flattened copy is materialized); the manifest preserves the boundaries.
// Caller holds t.mu.
func saveTableLocked(bw *bufio.Writer, t *Table, dictID map[*Dict]uint32) error {
	views := t.segViewsLocked()
	writeStr(bw, t.Name)
	writeU32(bw, uint32(t.nrows))
	writeU32(bw, uint32(t.segTarget))
	segmented := t.segTarget > 0
	if segmented {
		sealed := 0
		for i := range views {
			if views[i].Sealed {
				sealed++
			}
		}
		writeU32(bw, uint32(sealed))
		for i := range views {
			if views[i].Sealed {
				writeU32(bw, uint32(views[i].N))
			}
		}
	} else {
		writeU32(bw, 0)
	}
	writeU32(bw, uint32(len(t.names)))
	for _, name := range t.names {
		writeStr(bw, name)
		if err := bw.WriteByte(byte(t.colTypes[name])); err != nil {
			return err
		}
		if t.colTypes[name] == TDict {
			writeU32(bw, dictID[t.colDicts[name]])
		}
		for i := range views {
			sv := &views[i]
			if err := writeChunkPayload(bw, sv.Cols[name], sv.N); err != nil {
				return fmt.Errorf("storage: save %s.%s: %w", t.Name, name, err)
			}
		}
	}

	// Deletion bits, combined across segments into one global vector.
	hasDel := false
	for i := range views {
		if views[i].Del != nil && views[i].Del.Count() > 0 {
			hasDel = true
			break
		}
	}
	if hasDel {
		del := NewBitmap(t.nrows)
		for i := range views {
			sv := &views[i]
			if sv.Del == nil {
				continue
			}
			for j := 0; j < sv.N; j++ {
				if sv.Del.Get(j) {
					del.Set(sv.Base + j)
				}
			}
		}
		bw.WriteByte(1)
		words := (t.nrows + 63) / 64
		for wi := 0; wi < words; wi++ {
			var word uint64
			for b := 0; b < 64; b++ {
				i := wi*64 + b
				if i < t.nrows && del.Get(i) {
					word |= 1 << uint(b)
				}
			}
			writeU64(bw, word)
		}
	} else {
		bw.WriteByte(0)
	}
	writeU32(bw, uint32(len(t.fks)))
	for _, col := range t.names {
		if ref := t.fks[col]; ref != nil {
			writeStr(bw, col)
			writeStr(bw, ref.Name)
		}
	}
	return nil
}

// LoadDatabase reads a binary image written by Save, rebuilding tables,
// shared dictionaries, deletion vectors, slot free lists, and FK edges.
func LoadDatabase(r io.Reader) (*Database, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("storage: load: %w", err)
	}
	var version int
	switch string(magic) {
	case persistMagic:
		version = 3
	case persistMagicV2:
		version = 2
	case persistMagicV1:
		version = 1
	default:
		return nil, fmt.Errorf("storage: load: bad magic %q", magic)
	}
	v1 := version == 1

	nd, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nd > maxLoadCount {
		return nil, fmt.Errorf("storage: load: dictionary count %d too large", nd)
	}
	dicts := prealloc[*Dict](int(nd))
	for i := uint32(0); i < nd; i++ {
		nv, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if nv > maxLoadCount {
			return nil, fmt.Errorf("storage: load: dictionary size %d too large", nv)
		}
		d := NewDict()
		for v := uint32(0); v < nv; v++ {
			s, err := readStr(br)
			if err != nil {
				return nil, err
			}
			d.Intern(s)
		}
		dicts = append(dicts, d)
	}

	nt, err := readU32(br)
	if err != nil {
		return nil, err
	}
	db := NewDatabase()
	type fkEdge struct{ table, col, ref string }
	var edges []fkEdge
	for ti := uint32(0); ti < nt; ti++ {
		name, err := readStr(br)
		if err != nil {
			return nil, err
		}
		nrows, err := readU32(br)
		if err != nil {
			return nil, err
		}
		var segTarget uint32
		var sealedRows []int
		if !v1 {
			if segTarget, err = readU32(br); err != nil {
				return nil, err
			}
			nseg, err := readU32(br)
			if err != nil {
				return nil, err
			}
			if nseg > maxLoadCount {
				return nil, fmt.Errorf("storage: load: table %s implausible segment count", name)
			}
			total := uint64(0)
			for si := uint32(0); si < nseg; si++ {
				rows, err := readU32(br)
				if err != nil {
					return nil, err
				}
				total += uint64(rows)
				sealedRows = append(sealedRows, int(rows))
			}
			if segTarget == 0 && nseg > 0 {
				return nil, fmt.Errorf("storage: load: table %s has segments but no segment target", name)
			}
			if total > uint64(nrows) {
				return nil, fmt.Errorf("storage: load: table %s segment manifest exceeds row count", name)
			}
		}
		ncols, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if nrows > maxLoadCount || ncols > 1<<20 {
			return nil, fmt.Errorf("storage: load: table %s implausible shape", name)
		}
		t := NewTable(name)
		// v3 images of segmented tables store one tagged chunk per segment;
		// older images (and flat tables) store one flat payload per column.
		v3seg := version == 3 && segTarget > 0
		var chunkCounts []int
		var chunks map[string][]Column
		if v3seg {
			tail := int(nrows)
			for _, rows := range sealedRows {
				tail -= rows
			}
			chunkCounts = append(append([]int(nil), sealedRows...), tail)
			chunks = make(map[string][]Column)
		}
		for ci := uint32(0); ci < ncols; ci++ {
			colName, err := readStr(br)
			if err != nil {
				return nil, err
			}
			switch {
			case v3seg:
				typ, dict, err := readColumnHeader(br, dicts)
				if err != nil {
					return nil, fmt.Errorf("storage: load %s.%s: %w", name, colName, err)
				}
				if _, dup := t.colTypes[colName]; dup {
					return nil, fmt.Errorf("storage: load %s: duplicate column %s", name, colName)
				}
				t.names = append(t.names, colName)
				t.colTypes[colName] = typ
				if dict != nil {
					t.colDicts[colName] = dict
				}
				t.schemaVersion++
				for _, cn := range chunkCounts {
					c, err := readChunk(br, typ, cn, dict)
					if err != nil {
						return nil, fmt.Errorf("storage: load %s.%s: %w", name, colName, err)
					}
					chunks[colName] = append(chunks[colName], c)
				}
			case version == 3:
				typ, dict, err := readColumnHeader(br, dicts)
				if err != nil {
					return nil, fmt.Errorf("storage: load %s.%s: %w", name, colName, err)
				}
				c, err := readChunk(br, typ, int(nrows), dict)
				if err != nil {
					return nil, fmt.Errorf("storage: load %s.%s: %w", name, colName, err)
				}
				if err := t.AddColumn(colName, DecodeChunk(c)); err != nil {
					return nil, err
				}
			default:
				c, err := readColumn(br, int(nrows), dicts)
				if err != nil {
					return nil, fmt.Errorf("storage: load %s.%s: %w", name, colName, err)
				}
				if err := t.AddColumn(colName, c); err != nil {
					return nil, err
				}
			}
		}
		t.nrows = int(nrows) // tables with zero columns still carry rows
		hasDel, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if hasDel == 1 {
			// Read the words before sizing the bitmap by nrows.
			nwords := (int(nrows) + 63) / 64
			words := prealloc[uint64](nwords)
			for len(words) < nwords {
				word, err := readU64(br)
				if err != nil {
					return nil, err
				}
				words = append(words, word)
			}
			t.del = NewBitmap(int(nrows))
			for wi, word := range words {
				for b := 0; b < 64; b++ {
					i := wi*64 + b
					if i < int(nrows) && word&(1<<uint(b)) != 0 {
						t.del.Set(i)
						t.free = append(t.free, int32(i))
					}
				}
			}
		}
		switch {
		case v3seg:
			// Install the on-disk segments directly, preserving sealed-chunk
			// encodings (zone maps are recomputed). Slot free lists do not
			// apply to segmented tables.
			t.segTarget = int(segTarget)
			t.installSegmentsLocked(chunks, chunkCounts, t.del)
			t.del = nil
			t.free = t.free[:0]
		case segTarget > 0:
			// Restore the exact on-disk segmentation: the flat columns
			// re-chunk along the manifest boundaries and zone maps are
			// recomputed. Slot free lists do not apply to segmented tables.
			flat, del := t.cols, t.del
			t.segTarget = int(segTarget)
			t.rebuildSegmentsLocked(flat, del, sealedRows)
			t.cols = make(map[string]Column)
			t.del = nil
			t.free = t.free[:0]
		}
		nfk, err := readU32(br)
		if err != nil {
			return nil, err
		}
		for f := uint32(0); f < nfk; f++ {
			col, err := readStr(br)
			if err != nil {
				return nil, err
			}
			ref, err := readStr(br)
			if err != nil {
				return nil, err
			}
			edges = append(edges, fkEdge{table: name, col: col, ref: ref})
		}
		if err := db.Add(t); err != nil {
			return nil, err
		}
	}
	for _, e := range edges {
		t := db.Table(e.table)
		ref := db.Table(e.ref)
		if ref == nil {
			return nil, fmt.Errorf("storage: load: FK %s.%s references unknown table %s", e.table, e.col, e.ref)
		}
		if err := t.AddFK(e.col, ref); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// writeColumnPayload writes the first n elements of a chunk's array (type
// byte and dictionary header are written once per column by the caller,
// before the per-segment payloads).
func writeColumnPayload(w *bufio.Writer, c Column, n int) error {
	switch c := c.(type) {
	case *Int32Col:
		for _, v := range c.V[:n] {
			writeU32(w, uint32(v))
		}
	case *Int64Col:
		for _, v := range c.V[:n] {
			writeU64(w, uint64(v))
		}
	case *Float64Col:
		for _, v := range c.V[:n] {
			writeU64(w, math.Float64bits(v))
		}
	case *StrCol:
		for _, s := range c.V[:n] {
			writeStr(w, s)
		}
	case *DictCol:
		for _, v := range c.Codes[:n] {
			writeU32(w, uint32(v))
		}
	default:
		return fmt.Errorf("storage: unknown column type %T", c)
	}
	return nil
}

// writeChunkPayload writes one chunk as a u8 encoding tag plus payload.
// Encoded chunks persist their compressed representation directly.
func writeChunkPayload(w *bufio.Writer, c Column, n int) error {
	if err := w.WriteByte(byte(ChunkEncoding(c))); err != nil {
		return err
	}
	switch c := c.(type) {
	case *RLEInt32Col:
		writeU32(w, uint32(len(c.V)))
		for _, v := range c.V {
			writeU32(w, uint32(v))
		}
		for _, e := range c.End {
			writeU32(w, uint32(e))
		}
	case *RLEInt64Col:
		writeU32(w, uint32(len(c.V)))
		for _, v := range c.V {
			writeU64(w, uint64(v))
		}
		for _, e := range c.End {
			writeU32(w, uint32(e))
		}
	case *RLEDictCol:
		writeU32(w, uint32(len(c.V)))
		for _, v := range c.V {
			writeU32(w, uint32(v))
		}
		for _, e := range c.End {
			writeU32(w, uint32(e))
		}
	case *FoRInt32Col:
		writeU64(w, uint64(c.Base))
		w.WriteByte(c.Width)
		writeU32(w, uint32(c.N))
		writeU32(w, uint32(len(c.Words)))
		for _, word := range c.Words {
			writeU64(w, word)
		}
	case *FoRInt64Col:
		writeU64(w, uint64(c.Base))
		w.WriteByte(c.Width)
		writeU32(w, uint32(c.N))
		writeU32(w, uint32(len(c.Words)))
		for _, word := range c.Words {
			writeU64(w, word)
		}
	default:
		return writeColumnPayload(w, c, n)
	}
	return nil
}

// readRLEEnds reads and validates cumulative run ends: strictly increasing,
// last equal to the chunk row count.
func readRLEEnds(r *bufio.Reader, runs, n int) ([]int32, error) {
	end := prealloc[int32](runs)
	prev := int32(0)
	for i := 0; i < runs; i++ {
		x, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if int32(x) <= prev {
			return nil, fmt.Errorf("storage: load: RLE run ends not increasing")
		}
		prev = int32(x)
		end = append(end, prev)
	}
	if runs > 0 && int(end[runs-1]) != n {
		return nil, fmt.Errorf("storage: load: RLE run ends cover %d rows, want %d", end[runs-1], n)
	}
	if runs == 0 && n != 0 {
		return nil, fmt.Errorf("storage: load: RLE chunk of %d rows has no runs", n)
	}
	return end, nil
}

// readChunk reads one tagged chunk of n rows for a column of the given
// declared type (dict carries the already-resolved shared dictionary).
func readChunk(r *bufio.Reader, typ Type, n int, dict *Dict) (Column, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch Encoding(tag) {
	case EncPlain:
		return readPlainPayload(r, typ, n, dict)
	case EncRLE:
		runs, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if int(runs) > n {
			return nil, fmt.Errorf("storage: load: RLE chunk has %d runs over %d rows", runs, n)
		}
		switch typ {
		case TInt32, TDict:
			vals := prealloc[int32](int(runs))
			for i := uint32(0); i < runs; i++ {
				x, err := readU32(r)
				if err != nil {
					return nil, err
				}
				if typ == TDict && int(x) >= dict.Len() {
					return nil, fmt.Errorf("storage: code %d out of dictionary range", x)
				}
				vals = append(vals, int32(x))
			}
			end, err := readRLEEnds(r, int(runs), n)
			if err != nil {
				return nil, err
			}
			if typ == TDict {
				return &RLEDictCol{V: vals, End: end, Dict: dict}, nil
			}
			return &RLEInt32Col{V: vals, End: end}, nil
		case TInt64:
			vals := prealloc[int64](int(runs))
			for i := uint32(0); i < runs; i++ {
				x, err := readU64(r)
				if err != nil {
					return nil, err
				}
				vals = append(vals, int64(x))
			}
			end, err := readRLEEnds(r, int(runs), n)
			if err != nil {
				return nil, err
			}
			return &RLEInt64Col{V: vals, End: end}, nil
		default:
			return nil, fmt.Errorf("storage: load: RLE encoding invalid for type %s", typ)
		}
	case EncFoR:
		if typ != TInt32 && typ != TInt64 {
			return nil, fmt.Errorf("storage: load: FoR encoding invalid for type %s", typ)
		}
		base, err := readU64(r)
		if err != nil {
			return nil, err
		}
		width, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		cn, err := readU32(r)
		if err != nil {
			return nil, err
		}
		nwords, err := readU32(r)
		if err != nil {
			return nil, err
		}
		wantWords := (uint64(cn)*uint64(width) + 63) / 64
		if width > 64 || int(cn) != n || uint64(nwords) != wantWords {
			return nil, fmt.Errorf("storage: load: FoR chunk shape invalid (width %d, rows %d/%d, words %d/%d)",
				width, cn, n, nwords, wantWords)
		}
		words := prealloc[uint64](int(nwords))
		for i := uint32(0); i < nwords; i++ {
			word, err := readU64(r)
			if err != nil {
				return nil, err
			}
			words = append(words, word)
		}
		if typ == TInt32 {
			return &FoRInt32Col{Base: int64(base), Width: width, N: n, Words: words}, nil
		}
		return &FoRInt64Col{Base: int64(base), Width: width, N: n, Words: words}, nil
	default:
		return nil, fmt.Errorf("storage: load: unknown chunk encoding tag %d", tag)
	}
}

// readColumnHeader reads a column's type byte plus, for dict columns, its
// shared dictionary reference.
func readColumnHeader(r *bufio.Reader, dicts []*Dict) (Type, *Dict, error) {
	tb, err := r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	typ := Type(tb)
	switch typ {
	case TInt32, TInt64, TFloat64, TString:
		return typ, nil, nil
	case TDict:
		di, err := readU32(r)
		if err != nil {
			return 0, nil, err
		}
		if int(di) >= len(dicts) {
			return 0, nil, fmt.Errorf("storage: dictionary index %d out of range", di)
		}
		return typ, dicts[di], nil
	default:
		return 0, nil, fmt.Errorf("storage: unknown column type byte %d", tb)
	}
}

// readPlainPayload reads a flat array of n elements of the given type.
func readPlainPayload(r *bufio.Reader, typ Type, n int, dict *Dict) (Column, error) {
	switch typ {
	case TInt32:
		v := prealloc[int32](n)
		for i := 0; i < n; i++ {
			x, err := readU32(r)
			if err != nil {
				return nil, err
			}
			v = append(v, int32(x))
		}
		return NewInt32Col(v), nil
	case TInt64:
		v := prealloc[int64](n)
		for i := 0; i < n; i++ {
			x, err := readU64(r)
			if err != nil {
				return nil, err
			}
			v = append(v, int64(x))
		}
		return NewInt64Col(v), nil
	case TFloat64:
		v := prealloc[float64](n)
		for i := 0; i < n; i++ {
			x, err := readU64(r)
			if err != nil {
				return nil, err
			}
			v = append(v, math.Float64frombits(x))
		}
		return NewFloat64Col(v), nil
	case TString:
		v := prealloc[string](n)
		for i := 0; i < n; i++ {
			s, err := readStr(r)
			if err != nil {
				return nil, err
			}
			v = append(v, s)
		}
		return NewStrCol(v), nil
	case TDict:
		codes := prealloc[int32](n)
		for i := 0; i < n; i++ {
			x, err := readU32(r)
			if err != nil {
				return nil, err
			}
			if int(x) >= dict.Len() {
				return nil, fmt.Errorf("storage: code %d out of dictionary range", x)
			}
			codes = append(codes, int32(x))
		}
		return &DictCol{Codes: codes, Dict: dict}, nil
	default:
		return nil, fmt.Errorf("storage: unknown column type %s", typ)
	}
}

// readColumn reads a v1/v2 column record: type byte, optional dictionary
// index, then a flat payload of n elements.
func readColumn(r *bufio.Reader, n int, dicts []*Dict) (Column, error) {
	typ, dict, err := readColumnHeader(r, dicts)
	if err != nil {
		return nil, err
	}
	return readPlainPayload(r, typ, n, dict)
}

func writeU32(w *bufio.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeU64(w *bufio.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func writeStr(w *bufio.Writer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func readU32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readU64(r *bufio.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readStr(r *bufio.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<28 {
		return "", fmt.Errorf("storage: load: string length %d too large", n)
	}
	b := prealloc[byte](int(n))
	for len(b) < int(n) {
		k := min(int(n)-len(b), maxPrealloc)
		b = slices.Grow(b, k)[:len(b)+k]
		if _, err := io.ReadFull(r, b[len(b)-k:]); err != nil {
			return "", err
		}
	}
	return string(b), nil
}
