package storage

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// buildPersistFixture covers every column type, a shared dictionary, a
// deletion vector, and FK edges.
func buildPersistFixture(t *testing.T) *Database {
	t.Helper()
	sharedDict := NewDict()

	dim := NewTable("dim")
	dc1 := NewDictCol(sharedDict)
	for _, s := range []string{"ASIA", "EUROPE", "ASIA"} {
		dc1.Append(s)
	}
	dim.MustAddColumn("region", dc1)
	dim.MustAddColumn("name", NewStrCol([]string{"a", "b", "c"}))

	fact := NewTable("fact")
	fact.MustAddColumn("fk", NewInt32Col([]int32{0, 2, 1, 0}))
	fact.MustAddColumn("m64", NewInt64Col([]int64{-5, 10, 1 << 40, 0}))
	fact.MustAddColumn("f64", NewFloat64Col([]float64{1.5, -2.25, 0, 3.14159}))
	dc2 := NewDictCol(sharedDict) // shares dim's dictionary
	for _, s := range []string{"EUROPE", "ASIA", "ASIA", "EUROPE"} {
		dc2.Append(s)
	}
	fact.MustAddColumn("tag", dc2)
	fact.MustAddFK("fk", dim)

	if err := fact.Delete(1); err != nil {
		t.Fatal(err)
	}

	db := NewDatabase()
	db.MustAdd(dim)
	db.MustAdd(fact)
	return db
}

func TestSaveLoadRoundtrip(t *testing.T) {
	db := buildPersistFixture(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}

	dim := got.Table("dim")
	fact := got.Table("fact")
	if dim == nil || fact == nil {
		t.Fatal("tables missing after load")
	}
	if fact.NumRows() != 4 || dim.NumRows() != 3 {
		t.Fatalf("rows: fact=%d dim=%d", fact.NumRows(), dim.NumRows())
	}
	if fact.FK("fk") != dim {
		t.Fatal("FK edge lost")
	}
	if err := got.ValidateAIR(); err != nil {
		t.Fatal(err)
	}

	// Values survive exactly.
	if v := fact.Column("m64").(*Int64Col).V; v[0] != -5 || v[2] != 1<<40 {
		t.Fatalf("int64 values = %v", v)
	}
	if v := fact.Column("f64").(*Float64Col).V; v[1] != -2.25 || v[3] != 3.14159 {
		t.Fatalf("float values = %v", v)
	}
	if s, _ := StringAt(dim.Column("name"), 2); s != "c" {
		t.Fatalf("string value = %q", s)
	}

	// The shared dictionary is shared again after load.
	d1 := dim.Column("region").(*DictCol).Dict
	d2 := fact.Column("tag").(*DictCol).Dict
	if d1 != d2 {
		t.Fatal("shared dictionary duplicated on load")
	}
	if d1.Len() != 2 {
		t.Fatalf("dictionary size = %d", d1.Len())
	}
	if s, _ := StringAt(fact.Column("tag"), 1); s != "ASIA" {
		t.Fatalf("dict value = %q", s)
	}

	// Deletion vector and slot reuse survive.
	if !fact.IsDeleted(1) || fact.NumLive() != 3 {
		t.Fatal("deletion vector lost")
	}
	row, err := fact.Insert(map[string]any{
		"fk": int32(0), "m64": int64(7), "f64": 1.0, "tag": "ASIA",
	})
	if err != nil {
		t.Fatal(err)
	}
	if row != 1 {
		t.Fatalf("free list not rebuilt: insert went to row %d", row)
	}
}

func TestSaveLoadEmptyAndLarge(t *testing.T) {
	// Empty database.
	var buf bytes.Buffer
	if err := NewDatabase().Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables()) != 0 {
		t.Fatal("phantom tables")
	}

	// A larger table crossing buffer boundaries.
	big := NewTable("big")
	n := 100_000
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i * 7)
	}
	big.MustAddColumn("v", NewInt64Col(v))
	db := NewDatabase()
	db.MustAdd(big)
	buf.Reset()
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err = LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gv := got.Table("big").Column("v").(*Int64Col).V
	for i := 0; i < n; i += 9999 {
		if gv[i] != int64(i*7) {
			t.Fatalf("value mismatch at %d", i)
		}
	}
}

func TestLoadRejectsCorruptImages(t *testing.T) {
	db := buildPersistFixture(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad-magic", []byte("NOTADB00rest")},
		{"truncated-header", good[:10]},
		{"truncated-mid", good[:len(good)/2]},
		{"truncated-end", good[:len(good)-3]},
	}
	for _, tc := range cases {
		if _, err := LoadDatabase(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: corrupt image loaded", tc.name)
		}
	}
}

func TestLoadRejectsHostileCounts(t *testing.T) {
	// magic + absurd dictionary count.
	data := append([]byte(persistMagic), 0xff, 0xff, 0xff, 0xff)
	if _, err := LoadDatabase(bytes.NewReader(data)); err == nil {
		t.Fatal("absurd dict count accepted")
	}
	if _, err := LoadDatabase(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestLoadBoundsAllocationByInput: a length field read from the image must
// not size an allocation on its own. Each input declares a huge
// dictionary count and then ends; each must fail with an error after
// allocating a bounded amount, not gigabytes.
func TestLoadBoundsAllocationByInput(t *testing.T) {
	for _, in := range []string{"ASTORDB10001", "ASTORDB1\x00\x00\x00\x01", "ASTORDB3\xff\xff\xff\x7f"} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := LoadDatabase(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%q: truncated image accepted", in)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%q: allocated %d MB before failing, want < 16 MB", in, alloc>>20)
		}
	}
}
