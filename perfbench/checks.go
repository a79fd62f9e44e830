package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"udbench/internal/datagen"
	"udbench/internal/mmvalue"
	"udbench/internal/udbms"
	"udbench/internal/workload"
)

// The checks below compare what the engine returned or holds against
// values computed here, in plain Go, from the generated dataset and
// the operations the benchmark saw succeed. None of them calls the
// engine's query code to get the expected value.

// The query parameters ParamGen always draws.
const (
	paramThreshold = 200.0
	paramTopN      = 10
)

// analyticWant holds the expected answers of analytic_reads.
type analyticWant struct {
	q4        map[string]int // per city
	q8        int
	q12       int
	q13       int
	uqlFilter map[string]int // customers of the city aged 40 or more
	uqlJoin   map[string]int // customers of the city
	joinOrds  map[string]int // orders of those customers
	topTotals []float64      // the ten largest order totals above 500
}

func obj(v mmvalue.Value) *mmvalue.Object { return v.MustObject() }

func num(o *mmvalue.Object, field string) float64 {
	f, _ := o.GetOr(field, mmvalue.Float(0)).AsFloat()
	return f
}

func str(o *mmvalue.Object, field string) string {
	s, _ := o.GetOr(field, mmvalue.Null).AsString()
	return s
}

func expectAnalytic(ds *datagen.Dataset) *analyticWant {
	w := &analyticWant{q4: map[string]int{}, uqlFilter: map[string]int{}, uqlJoin: map[string]int{}, joinOrds: map[string]int{}}
	cityOf := map[int64]string{}
	for _, c := range ds.Customers {
		o := obj(c)
		id := int64(num(o, "id"))
		city := str(o, "city")
		cityOf[id] = city
		w.uqlJoin[city]++
		if num(o, "age") >= 40 {
			w.uqlFilter[city]++
		}
	}
	spend := map[int64]float64{}
	cityRevenue := map[string]float64{}
	var totals []float64
	for _, ord := range ds.Orders {
		o := obj(ord)
		cid := int64(num(o, "customer_id"))
		total := num(o, "total")
		spend[cid] += total
		if city, ok := cityOf[cid]; ok {
			cityRevenue[city] += total
			w.joinOrds[city]++
		}
		if total > 500 {
			totals = append(totals, total)
		}
	}
	for cid, s := range spend {
		if s > paramThreshold {
			w.q4[cityOf[cid]]++
		}
	}
	w.q8 = len(cityRevenue)
	for _, rev := range cityRevenue {
		if rev > paramThreshold*50 {
			w.q12++
		}
	}
	type spender struct {
		cid int64
		rev float64
	}
	var top []spender
	for cid, rev := range spend {
		top = append(top, spender{cid, rev})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].rev != top[j].rev {
			return top[i].rev > top[j].rev
		}
		return top[i].cid < top[j].cid
	})
	cities := map[string]bool{}
	for _, s := range top[:min(paramTopN, len(top))] {
		if c := cityOf[s.cid]; c != "" {
			cities[c] = true
		}
	}
	w.q13 = len(cities)
	sort.Sort(sort.Reverse(sort.Float64Slice(totals)))
	w.topTotals = totals[:min(10, len(totals))]
	return w
}

// repeatKey names a (query, parameters) pair by the parameters the
// query reads.
func repeatKey(q workload.QueryID, p workload.Params) string {
	switch q {
	case workload.Q1, workload.Q11:
		return fmt.Sprintf("%s/%d", q, p.CustomerID)
	case workload.Q4:
		return fmt.Sprintf("%s/%s", q, p.City)
	}
	return q.String()
}

// checkQuery compares one pipeline query's count with the expected
// answer where one was computed, and remembers it for checkRepeats.
func checkQuery(r *roundResult, w *analyticWant, seen map[string]int, q workload.QueryID, p workload.Params, n int) {
	if p.Threshold != paramThreshold || p.TopN != paramTopN {
		r.failCheck("%s: parameters %v/%d are not the ones the expected answers assume", q, p.Threshold, p.TopN)
	}
	want := -1
	switch q {
	case workload.Q4:
		want = w.q4[p.City]
	case workload.Q8:
		want = w.q8
	case workload.Q12:
		want = w.q12
	case workload.Q13:
		want = w.q13
	}
	if want >= 0 && n != want {
		r.failCheck("%s(%s) returned %d, computed %d", q, p.City, n, want)
	}
	remember(r, seen, repeatKey(q, p), n)
}

func remember(r *roundResult, seen map[string]int, key string, n int) {
	if prev, ok := seen[key]; ok && prev != n {
		r.failCheck("%s returned %d after %d", key, n, prev)
	}
	seen[key] = n
}

// checkRepeats checks that every (query, parameters) pair returned the
// same count in every client.
func checkRepeats(r *roundResult, seen []map[string]int) {
	all := map[string]int{}
	for _, s := range seen {
		for k, n := range s {
			remember(r, all, k, n)
		}
	}
}

func checkUQL(r *roundResult, w *analyticWant, seen map[string]int, i int, city string, rows, joined int) {
	var want int
	switch i {
	case 0:
		want = w.uqlFilter[city]
	case 1:
		want = len(w.topTotals)
	case 2:
		want = w.uqlJoin[city]
		if joined != w.joinOrds[city] {
			r.failCheck("uql join(%s) joined %d orders, computed %d", city, joined, w.joinOrds[city])
		}
	}
	if rows != want {
		r.failCheck("uql %d(%s) returned %d rows, computed %d", i, city, rows, want)
	}
	remember(r, seen, fmt.Sprintf("uql%d/%s", i, city), rows)
}

// joinedOrders counts the documents the join attached to its rows.
func joinedOrders(rows []mmvalue.Value) int {
	n := 0
	for _, row := range rows {
		arr, _ := obj(row).GetOr("o", mmvalue.Null).AsArray()
		n += len(arr)
	}
	return n
}

// checkTopTotals checks the sort/limit statement returned the largest
// totals in descending order.
func checkTopTotals(r *roundResult, w *analyticWant, rows []mmvalue.Value) {
	for i, row := range rows {
		if i >= len(w.topTotals) {
			break
		}
		if got := num(obj(row), "total"); math.Abs(got-w.topTotals[i]) > 1e-9 {
			r.failCheck("uql sort row %d has total %v, computed %v", i, got, w.topTotals[i])
			return
		}
	}
}

// checkT2Mix checks the end state of a t2_mix round: T2 is the only
// op that adds orders, invoices and edges, one of each; every order a
// T1 touched carries the total T1's rule gives (add 1, cut to cents)
// from its generated total, in its document and its invoice alike.
func checkT2Mix(r *roundResult, ds *datagen.Dataset, before udbms.Stats, db *udbms.DB, newOrders int, touched map[string]int) {
	after := db.Stats()
	if d := after.Collections["orders"] - before.Collections["orders"]; d != newOrders {
		r.failCheck("t2_mix: orders grew by %d, T2 succeeded %d times", d, newOrders)
	}
	if d := after.XMLDocs - before.XMLDocs; d != newOrders {
		r.failCheck("t2_mix: invoices grew by %d, T2 succeeded %d times", d, newOrders)
	}
	if d := after.Edges - before.Edges; d != newOrders {
		r.failCheck("t2_mix: edges grew by %d, T2 succeeded %d times", d, newOrders)
	}
	generated := map[string]float64{}
	for _, o := range ds.Orders {
		generated[str(obj(o), "_id")] = num(obj(o), "total")
	}
	orders := db.Docs.Collection("orders")
	for id, n := range touched {
		want := generated[id]
		for i := 0; i < n; i++ {
			want = float64(int((want+1)*100)) / 100
		}
		doc, ok := orders.Get(nil, id)
		if !ok {
			r.failCheck("t2_mix: order %s is gone", id)
			continue
		}
		inv, ok := db.XML.Get(nil, id)
		if !ok {
			r.failCheck("t2_mix: invoice %s is gone", id)
			continue
		}
		var invTotal float64
		if el, ok := inv.FirstChild("total"); ok {
			invTotal, _ = strconv.ParseFloat(el.InnerText(), 64)
		}
		docTotal := num(obj(doc), "total")
		if math.Abs(docTotal-want) > 0.005 || math.Abs(invTotal-want) > 0.005 {
			r.failCheck("t2_mix: order %s after %d T1: document %.2f, invoice %.2f, computed %.2f", id, n, docTotal, invTotal, want)
		}
	}
}

// checkSeries checks every series of ts_ingest_wire: its points
// counter is the generated base plus the appends the client saw
// acknowledged, and exactly that many append keys exist.
func checkSeries(r *roundResult, when string, ds *datagen.TimeseriesDataset, db *udbms.DB, appends map[int]int) {
	tbl, ok := db.Relational.Table("series")
	if !ok {
		r.failCheck("ts_ingest_wire %s: no series table", when)
		return
	}
	for _, s := range ds.Series {
		id := int(num(obj(s), "id"))
		base := int(num(obj(s), "points"))
		row, ok := tbl.Get(nil, id)
		if !ok {
			r.failCheck("ts_ingest_wire %s: series %d is gone", when, id)
			continue
		}
		if got := int(num(obj(row), "points")); got != base+appends[id] {
			r.failCheck("ts_ingest_wire %s: series %d has %d points, want %d + %d acknowledged", when, id, got, base, appends[id])
		}
		keys := 0
		db.KV.ScanPrefix(nil, datagen.SeriesAppendPrefix(id), func(string, mmvalue.Value) bool {
			keys++
			return true
		})
		if keys != appends[id] {
			r.failCheck("ts_ingest_wire %s: series %d has %d append keys, %d acknowledged", when, id, keys, appends[id])
		}
	}
}
