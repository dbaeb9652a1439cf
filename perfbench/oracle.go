package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"astore/internal/baseline"
	"astore/internal/datagen/ssb"
	"astore/internal/obs"
	"astore/internal/sql"
	"astore/internal/storage"
)

// oracle answers queries with the operator-at-a-time hash-join engine over
// a second, flat copy of the data generated from the same seed. It shares
// no storage, plan, cache or execution code with the served DB.
type oracle struct {
	data *ssb.Data
	hj   *baseline.HashJoinEngine
}

func newOracle(seed int64, sf float64) *oracle {
	data := ssb.Generate(ssb.Config{SF: sf, Seed: seed})
	return &oracle{data: data, hj: baseline.NewHashJoinEngine(data.Lineorder)}
}

// expected is a result rendered the way the server renders it.
type expected struct {
	columns []string
	rows    [][]byte
}

// expect runs one SQL text and returns the result and its run time.
func (o *oracle) expect(text string) (*expected, time.Duration, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return nil, 0, fmt.Errorf("perfbench: oracle parse: %w", err)
	}
	t0 := time.Now()
	res, err := o.hj.Run(q)
	took := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("perfbench: oracle run: %w", err)
	}
	want := &expected{columns: res.Columns()}
	for _, r := range res.Rows {
		b, err := r.MarshalJSON()
		if err != nil {
			return nil, 0, err
		}
		want.rows = append(want.rows, b)
	}
	return want, took, nil
}

// queryResponse is the POST /v1/query response.
type queryResponse struct {
	Fact      string            `json:"fact"`
	Columns   []string          `json:"columns"`
	Rows      []json.RawMessage `json:"rows"`
	Trace     *obs.Span         `json:"trace"`
	RowCount  int               `json:"row_count"`
	ElapsedUS int64             `json:"elapsed_us"`
}

// check compares one response with the oracle's result: same columns and
// the same rows in the same order, byte for byte.
func check(body []byte, want *expected) error {
	var got queryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if !slices.Equal(got.Columns, want.columns) {
		return fmt.Errorf("columns %v, want %v", got.Columns, want.columns)
	}
	if len(got.Rows) != len(want.rows) || got.RowCount != len(want.rows) {
		return fmt.Errorf("%d rows (row_count %d), want %d", len(got.Rows), got.RowCount, len(want.rows))
	}
	for i := range got.Rows {
		if !bytes.Equal(got.Rows[i], want.rows[i]) {
			return fmt.Errorf("row %d is %s, want %s", i, got.Rows[i], want.rows[i])
		}
	}
	return nil
}

// replay appends the acknowledged batches to the oracle's lineorder, copying
// each row from its own generated copy of the sampled source row.
func (o *oracle) replay(pool []appendBatch, acked []int) error {
	lo := o.data.Lineorder
	names := lo.ColumnNames()
	src := make([]func(int) int64, len(names))
	for i, name := range names {
		switch c := lo.Column(name).(type) {
		case *storage.Int32Col:
			src[i] = func(r int) int64 { return int64(c.V[r]) }
		case *storage.Int64Col:
			src[i] = func(r int) int64 { return c.V[r] }
		default:
			return fmt.Errorf("perfbench: lineorder column %s has type %T", name, c)
		}
	}
	vals := make(map[string]any, len(names))
	for _, b := range acked {
		for _, r := range pool[b].rows {
			for i, name := range names {
				vals[name] = src[i](r)
			}
			if _, err := lo.Insert(vals); err != nil {
				return fmt.Errorf("perfbench: oracle replay: %w", err)
			}
		}
	}
	return nil
}
