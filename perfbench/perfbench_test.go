package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"testing"
	"time"

	"astore/internal/datagen/ssb"
)

const testSF = 0.05 // 300k lineorder rows: two sealed segments and a tail

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloads runs every workload at a tiny scale for a moment, untraced
// and traced, and checks that all oracle checks pass, nothing fails, and
// each mode reports exactly the metrics BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	units := func(traced bool) map[string]string {
		m := make(map[string]string)
		list := bf.EndToEnd
		if traced {
			list = bf.PerLayer
		}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			mode := map[bool]string{false: "untraced", true: "traced"}[traced]
			t.Run(name+"/"+mode, func(t *testing.T) {
				cfg := config{workload: name, seed: 3, seconds: 400 * time.Millisecond,
					trace: traced, sf: testSF, setups: 2}
				rep, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d failed; notes:\n%v", rep.Correct, rep.Failed, rep.Attempted, rep.notes)
				}
				want := units(traced)
				var got []string
				for m, v := range rep.Metrics {
					got = append(got, m)
					if want[m] != v.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m, v.Unit, want[m])
					}
				}
				sort.Strings(got)
				if len(got) != len(want) {
					t.Errorf("reported %d metrics %v, BENCHMARK.json declares %d", len(got), got, len(want))
				}
				var out bytes.Buffer
				if err := rep.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var last report
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
					t.Fatalf("last output line is not the JSON result: %v", err)
				}
			})
		}
	}
}

// TestOracleFlagsAlteredAggregate shows that a served response passes the
// oracle check and the same response with one aggregate changed does not.
func TestOracleFlagsAlteredAggregate(t *testing.T) {
	ctx := context.Background()
	top, err := open(ssb.Generate(ssb.Config{SF: testSF, Seed: 5}), false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer top.close(ctx)
	o := newOracle(5, testSF)
	for _, name := range []string{"Q1.1", "Q2.1", "Q4.3"} {
		text := ssb.QueriesSQL()[name]
		c := newClient()
		status, _, body, err := post(ctx, c, top.url+"/v1/query", newReadReq(name, text).body)
		c.CloseIdleConnections()
		if err != nil || status != http.StatusOK {
			t.Fatalf("%s: status %d, %v", name, status, err)
		}
		want, _, err := o.expect(text)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(body, want); err != nil {
			t.Fatalf("%s: served response fails the oracle: %v", name, err)
		}
		altered := alterLastAggregate(t, body)
		if err := check(altered, want); err == nil {
			t.Fatalf("%s: oracle accepted a response with one aggregate altered", name)
		} else {
			t.Logf("%s: altered response flagged: %v", name, err)
		}
	}
}

// alterLastAggregate adds one to the last value of the response's first row.
func alterLastAggregate(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp map[string]json.RawMessage
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	var rows [][]json.RawMessage
	if err := json.Unmarshal(resp["rows"], &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("response has no rows to alter")
	}
	row := rows[0]
	var v float64
	if err := json.Unmarshal(row[len(row)-1], &v); err != nil {
		t.Fatal(err)
	}
	row[len(row)-1], _ = json.Marshal(v + 1)
	var err error
	if resp["rows"], err = json.Marshal(rows); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
