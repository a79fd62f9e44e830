package main

import (
	"encoding/json"
	"os"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/txn"
	"udbench/internal/udbms"
	"udbench/internal/workload"
	"udbench/internal/xmlstore"
)

// Each test runs a few operations at a tiny scale, shows the check
// passes on the untouched result, then seeds one fault and shows the
// check catches it.

func loadFigure1(t *testing.T, sf float64) (*datagen.Dataset, *udbms.DB, *workload.UDBMSEngine) {
	t.Helper()
	ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 7})
	db := udbms.Open()
	if err := ds.Load(storesOf(db)); err != nil {
		t.Fatal(err)
	}
	return ds, db, workload.NewUDBMSEngine(db)
}

func wantCaught(t *testing.T, r *roundResult, what string) {
	t.Helper()
	if len(r.checks) == 0 {
		t.Fatalf("%s went unnoticed", what)
	}
}

func wantClean(t *testing.T, r *roundResult) {
	t.Helper()
	if len(r.checks) != 0 {
		t.Fatalf("check failed on a correct run: %v", r.checks)
	}
}

func TestT2MixChecks(t *testing.T) {
	ds, db, eng := loadFigure1(t, 0.02)
	before := db.Stats()
	gen := workload.NewParamGen(workload.InfoOf(ds), 3, theta)
	touched := map[string]int{}
	var added []string
	for i := 0; i < 20; i++ {
		p := gen.Next()
		p.FreshID = gen.NewOrderID(1, 0, i)
		if err := eng.OrderUpdate(p); err != nil {
			t.Fatal(err)
		}
		touched[p.OrderID]++
		if err := eng.NewOrder(p); err != nil {
			t.Fatal(err)
		}
		added = append(added, p.FreshID)
	}
	r := newRound()
	checkT2Mix(r, ds, before, db, len(added), touched)
	wantClean(t, r)

	r = newRound()
	checkT2Mix(r, ds, before, db, len(added)+1, touched)
	wantCaught(t, r, "one miscounted order")

	for id := range touched {
		err := db.RunTx(func(tx *txn.Tx) error {
			return db.XML.Update(tx, id, func(n *xmlstore.Node) (*xmlstore.Node, error) {
				el, _ := n.FirstChild("total")
				el.Children = []*xmlstore.Node{xmlstore.NewText("0.00")}
				return n, nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	r = newRound()
	checkT2Mix(r, ds, before, db, len(added), touched)
	wantCaught(t, r, "an invoice total that disagrees with its order")
}

func TestSeriesChecks(t *testing.T) {
	ds := datagen.GenerateTimeseries(datagen.Config{ScaleFactor: 0.05, Seed: 7})
	db := udbms.Open()
	if err := ds.Load(storesOf(db)); err != nil {
		t.Fatal(err)
	}
	eng := workload.NewUDBMSEngine(db)
	info := workload.Info{Customers: ds.NumSeries(), Products: ds.NumSeries(), Orders: ds.NumPoints()}
	gen := workload.NewParamGen(info, 3, theta)
	appends := map[int]int{}
	var last workload.Params
	for i := 0; i < 40; i++ {
		p := gen.Next()
		p.FreshID = gen.NewOrderID(1, 0, i)
		if _, err := eng.RunSuiteOp("timeseries", "append", p); err != nil {
			t.Fatal(err)
		}
		appends[p.CustomerID]++
		last = p
	}
	r := newRound()
	checkSeries(r, "test", ds, db, appends)
	wantClean(t, r)

	appends[last.CustomerID]++
	r = newRound()
	checkSeries(r, "test", ds, db, appends)
	wantCaught(t, r, "an append counted but never acknowledged")
	appends[last.CustomerID]--

	if err := db.KV.Delete(nil, datagen.SeriesAppendKey(last.CustomerID, last.FreshID)); err != nil {
		t.Fatal(err)
	}
	r = newRound()
	checkSeries(r, "test", ds, db, appends)
	wantCaught(t, r, "one dropped append")
}

func TestAnalyticChecks(t *testing.T) {
	ds, db, eng := loadFigure1(t, 0.1)
	want := expectAnalytic(ds)
	gen := workload.NewParamGen(workload.InfoOf(ds), 3, theta)
	run := func() *roundResult {
		r := newRound()
		seen := map[string]int{}
		for i := 0; i < 30; i++ {
			p := gen.Next()
			for _, q := range []workload.QueryID{workload.Q4, workload.Q8, workload.Q12, workload.Q13} {
				n, err := eng.RunQuery(q, p)
				if err != nil {
					t.Fatal(err)
				}
				checkQuery(r, want, seen, q, p, n)
			}
			for s := range uqlStatements {
				analyticUQL(r, db, nil, want, seen, s, p.City)
			}
		}
		return r
	}
	wantClean(t, run())

	// Drop the orders of the biggest spender: Q4 of their city, Q13 or
	// the UQL join must now disagree with the generated dataset.
	spend := map[int64]float64{}
	for _, o := range ds.Orders {
		spend[int64(num(obj(o), "customer_id"))] += num(obj(o), "total")
	}
	var top int64
	for cid, s := range spend {
		if s > spend[top] {
			top = cid
		}
	}
	orders := db.Docs.Collection("orders")
	for _, o := range ds.Orders {
		if int64(num(obj(o), "customer_id")) == top {
			if err := orders.Delete(nil, str(obj(o), "_id")); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantCaught(t, run(), "a customer whose orders vanished")

	r := newRound()
	checkRepeats(r, []map[string]int{{"Q1/3": 4}, {"Q1/3": 5}})
	wantCaught(t, r, "a query whose count changed between repetitions")
}

// The metric names the program prints must be the ones BENCHMARK.json
// declares, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEndMetrics([]*roundResult{{ops: 1, elapsed: 1}})
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s/%s: program prints %+v", m.Name, m.Unit, got)
		}
	}
	layers := layerMetrics()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program prints %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		if l := layers[i]; l.name != m.Name || l.unit != m.Unit || l.better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, l)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Layer: "server.call", Phase: "measure", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "server.exec", Phase: "measure", Start: 10, End: 90},
		{ID: 3, Parent: 2, Layer: "wal.sync", Phase: "measure", Start: 20, End: 50},
		{ID: 4, Parent: 2, Layer: "wal.sync", Phase: "measure", Start: 40, End: 120},
	}
	got := tr.selfTimes("measure")
	want := map[string]int64{"server.call": 20, "server.exec": 10, "wal.sync": 110}
	for layer, w := range want {
		if int64(got[layer]) != w {
			t.Errorf("%s self time %d, want %d", layer, got[layer], w)
		}
	}
}
