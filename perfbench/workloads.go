package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"udbench/internal/datagen"
	"udbench/internal/durable"
	"udbench/internal/server"
	"udbench/internal/txn"
	"udbench/internal/udbms"
	"udbench/internal/uql"
	"udbench/internal/wal"
	"udbench/internal/workload"
)

// Inputs of the three workloads. Every operation count is per round:
// rounds are count-bounded so that each one does the same work, and a
// run repeats them until its time is up.
const (
	// theta is the Zipf skew of every parameter draw.
	theta = 0.5

	t2SF  = 0.2
	t2Ops = 10000

	analyticSF = 1.0
	// analyticCycles is how many rotations each of the two clients runs.
	analyticCycles = 60
	analyticConns  = 2

	tsSF    = 1.0
	tsOps   = 6000 // per connection
	tsConns = 2
	// setupReps is how many times a round sets up, and restarts, an
	// in-process engine; tsReopens how many times a ts_ingest_wire round
	// recovers its log. setup_s and recovery_s are their medians.
	setupReps = 3
	tsReopens = 3

	// q1IsolatedRuns is how many Q1 calls time Q1 alone before the mix.
	q1IsolatedRuns = 300
)

// paramSeed derives the parameter stream of one client in one round.
func paramSeed(seed uint64, round, client int) uint64 {
	return seed*1_000_003 + uint64(round)*7919 + uint64(client)*104_729 + 1
}

// storesOf is the load target of an engine: its five stores.
func storesOf(db *udbms.DB) datagen.Target {
	return datagen.Target{Relational: db.Relational, Docs: db.Docs, Graph: db.Graph, KV: db.KV, XML: db.XML}
}

// setupFigure1 generates the Figure-1 dataset and loads it into a fresh
// in-process engine, timing both as the round's set-up. It does so
// setupReps times and keeps the last engine: one set-up takes only tens
// of milliseconds, so setup_s is the median of several. Every timed
// set-up and restart starts from a collected heap, as in a fresh
// process, so the garbage of the one before does not land in it.
func setupFigure1(r *roundResult, cfg datagen.Config, tr *tracer) (*datagen.Dataset, *udbms.DB, error) {
	var ds *datagen.Dataset
	var db *udbms.DB
	var gens, loads, totals []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		_ = tr.step("datagen.generate", "setup", func() error { ds = datagen.Generate(cfg); return nil })
		gen := time.Since(t0)
		err := tr.step("stores.load", "setup", func() error {
			db = udbms.Open()
			return ds.Load(storesOf(db))
		})
		if err != nil {
			return nil, nil, fmt.Errorf("load: %w", err)
		}
		total := time.Since(t0)
		gens, loads, totals = append(gens, gen.Seconds()), append(loads, (total-gen).Seconds()), append(totals, total.Seconds())
	}
	r.setup = seconds(median(totals))
	r.layer["datagen.generate_s"] = median(gens)
	r.layer["stores.load_s"] = median(loads)
	r.layer["stores.live_heap_mb"] = liveHeapMB()
	st := db.Stats()
	for name, n := range st.Collections {
		r.counts["docs."+name] = n
	}
	for name, n := range st.Tables {
		r.counts["rows."+name] = n
	}
	r.counts["vertices"], r.counts["edges"], r.counts["kv"], r.counts["xml"] = st.Vertices, st.Edges, st.KVPairs, st.XMLDocs
	return ds, db, nil
}

// reloadFigure1 is the restart of an in-process engine, which keeps
// nothing across one: a fresh engine loaded from the dataset, setupReps
// times. It returns the median.
func reloadFigure1(ds *datagen.Dataset, tr *tracer) (time.Duration, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := tr.step("stores.load", "recover", func() error { return ds.Load(storesOf(udbms.Open())) }); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return seconds(median(times)), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// q1Isolated times Q1 alone on the freshly loaded store, before any
// write, as the base of udbms.q1_mix_over_isolated.
func q1Isolated(r *roundResult, eng *workload.UDBMSEngine, info workload.Info, seed uint64, tr *tracer) {
	tr.setPhase("isolated")
	gen := workload.NewParamGen(info, seed, theta)
	var total time.Duration
	for i := 0; i < q1IsolatedRuns; i++ {
		p := gen.Next()
		t := time.Now()
		_ = tr.call("udbms", func(uint64) error { _, err := eng.RunQuery(workload.Q1, p); return err })
		total += time.Since(t)
	}
	r.layer["udbms.q1_isolated_mean_ms"] = ms(total / q1IsolatedRuns)
}

// measure runs one measured phase and records its wall time, CPU time,
// peak heap and runtime counters.
func measure(r *roundResult, tr *tracer, fn func()) {
	rt0, cpu0 := readRuntime(), cpuTime()
	hs := startHeapSampler()
	tr.setPhase("measure")
	t0 := time.Now()
	fn()
	r.elapsed = time.Since(t0)
	tr.setPhase("post")
	r.heapMB = hs.stop()
	r.cpu = cpuTime() - cpu0
	for k, v := range runtimeDelta(rt0, readRuntime(), r.ops) {
		r.layer[k] = v
	}
}

func lockLayer(r *roundResult, d txn.LockStats) {
	r.layer["txn.lock_acquires_per_op"] = float64(d.Acquires) / float64(r.ops)
	r.layer["txn.lock_waits_per_op"] = float64(d.Waits) / float64(r.ops)
	r.layer["txn.lock_wait_ms"] = ms(d.WaitNS)
	if d.Acquires > 0 {
		r.layer["txn.shared_fast_ratio"] = float64(d.SharedFast) / float64(d.Acquires)
	}
	r.layer["txn.deadlock_victims"] = float64(d.Detector.Victims)
}

// picker draws mix items by weight from its own stream.
type picker struct {
	rng   *datagen.RNG
	mix   []workload.MixItem
	total int
}

func newPicker(seed uint64, mix []workload.MixItem) *picker {
	p := &picker{rng: datagen.NewRNG(seed), mix: mix}
	for _, m := range mix {
		p.total += m.Weight
	}
	return p
}

func (p *picker) next() workload.MixItem {
	n := p.rng.Intn(p.total)
	for _, m := range p.mix {
		if n < m.Weight {
			return m
		}
		n -= m.Weight
	}
	return p.mix[len(p.mix)-1]
}

// t2MixRound runs the paper's T2 mix as the t2 suite builds it, on the
// in-process engine with one client.
func t2MixRound(seed uint64, k int, tr *tracer) (*roundResult, error) {
	r := newRound()
	ds, db, err := setupFigure1(r, datagen.Config{ScaleFactor: t2SF, Seed: seed}, tr)
	if err != nil {
		return nil, err
	}
	eng := workload.NewUDBMSEngine(db)
	info := workload.InfoOf(ds)
	before := db.Stats()
	q1Isolated(r, eng, info, paramSeed(seed, k, 9), tr)
	suite, _ := workload.SuiteByName("t2")
	pick := newPicker(paramSeed(seed, k, 1), suite.Mix(eng))
	gen := workload.NewParamGen(info, paramSeed(seed, k, 0), theta)
	var newOrders int
	touched := map[string]int{}
	lock0 := db.Manager().LockStats()
	measure(r, tr, func() {
		for i := 0; i < t2Ops; i++ {
			p := gen.Next()
			p.FreshID = gen.NewOrderID(uint64(k+1), 0, i)
			item := pick.next()
			t := time.Now()
			err := tr.call("udbms", func(uint64) error { return item.Run(p) })
			r.opSample(strings.ToLower(item.Name), time.Since(t), err)
			if err != nil {
				continue
			}
			switch item.Name {
			case "T1":
				touched[p.OrderID]++
			case "T2":
				newOrders++
			}
		}
	})
	lockLayer(r, db.Manager().LockStats().Delta(lock0))
	r.layer["txn.versions_reclaimed"] = float64(db.Compact(0))
	checkT2Mix(r, ds, before, db, newOrders, touched)
	if r.recovery, err = reloadFigure1(ds, tr); err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}
	return r, nil
}

// analyticRotation is one client cycle: each pipeline query three
// times, then two UQL statements.
var analyticRotation = []workload.QueryID{
	workload.Q1, workload.Q4, workload.Q8, workload.Q11, workload.Q12, workload.Q13,
	workload.Q1, workload.Q4, workload.Q8, workload.Q11, workload.Q12, workload.Q13,
	workload.Q1, workload.Q4, workload.Q8, workload.Q11, workload.Q12, workload.Q13,
	0, 0,
}

// uqlStatements are the ad-hoc queries: a filter, a sort with a limit,
// and a relational to document join. %s takes a city.
var uqlStatements = []string{
	`FOR c IN customer FILTER c.city == "%s" AND c.age >= 40 RETURN c.id`,
	`FOR o IN orders FILTER o.total > 500 SORT o.total DESC LIMIT 10 RETURN o._id, o.total`,
	`FOR c IN customer FILTER c.city == "%s" JOIN o IN orders ON o.customer_id == c.id RETURN c.id, o`,
}

func uqlText(i int, city string) string {
	if strings.Contains(uqlStatements[i], "%s") {
		return fmt.Sprintf(uqlStatements[i], city)
	}
	return uqlStatements[i]
}

// analyticReadsRound rotates the six pipeline queries plus ad-hoc UQL,
// read-only, over two clients.
func analyticReadsRound(seed uint64, k int, tr *tracer) (*roundResult, error) {
	r := newRound()
	ds, db, err := setupFigure1(r, datagen.Config{ScaleFactor: analyticSF, Seed: seed}, tr)
	if err != nil {
		return nil, err
	}
	eng := workload.NewUDBMSEngine(db)
	info := workload.InfoOf(ds)
	want := expectAnalytic(ds)
	q1Isolated(r, eng, info, paramSeed(seed, k, 9), tr)
	r.layer["uql.parse_us"] = uqlParseUS()

	seen := make([]map[string]int, analyticConns)
	clients := make([]*roundResult, analyticConns)
	lock0 := db.Manager().LockStats()
	measure(r, tr, func() {
		var wg sync.WaitGroup
		for c := 0; c < analyticConns; c++ {
			cr := newRound()
			clients[c], seen[c] = cr, map[string]int{}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				gen := workload.NewParamGen(info, paramSeed(seed, k, c), theta)
				u := 0
				for cycle := 0; cycle < analyticCycles; cycle++ {
					for _, q := range analyticRotation {
						p := gen.Next()
						if q == 0 {
							analyticUQL(cr, db, tr, want, seen[c], u%len(uqlStatements), p.City)
							u++
							continue
						}
						var n int
						t := time.Now()
						err := tr.call("udbms", func(uint64) error {
							var err error
							n, err = eng.RunQuery(q, p)
							return err
						})
						cr.opSample(strings.ToLower(q.String()), time.Since(t), err)
						if err == nil {
							checkQuery(cr, want, seen[c], q, p, n)
						}
					}
				}
			}(c)
		}
		wg.Wait()
		for _, cr := range clients {
			r.merge(cr)
		}
	})
	checkRepeats(r, seen)
	lockLayer(r, db.Manager().LockStats().Delta(lock0))
	r.layer["txn.versions_reclaimed"] = float64(db.Compact(0))
	if r.recovery, err = reloadFigure1(ds, tr); err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}
	return r, nil
}

// merge folds a client's samples and check failures into r.
func (r *roundResult) merge(c *roundResult) {
	r.ops += c.ops
	r.failed += c.failed
	r.lat = append(r.lat, c.lat...)
	for k, v := range c.pooled {
		r.pooled[k] = append(r.pooled[k], v...)
	}
	for _, msg := range c.checks {
		r.failCheck("%s", msg)
	}
}

func analyticUQL(r *roundResult, db *udbms.DB, tr *tracer, want *analyticWant, seen map[string]int, i int, city string) {
	src := uqlText(i, city)
	t := time.Now()
	var rows int
	var joined int
	err := tr.call("uql", func(uint64) error {
		res, err := uql.Run(db, nil, src)
		rows = len(res)
		if err == nil && i == 2 {
			joined = joinedOrders(res)
		}
		if err == nil && i == 1 {
			checkTopTotals(r, want, res)
		}
		return err
	})
	r.opSample("uql", time.Since(t), err)
	if err == nil {
		checkUQL(r, want, seen, i, city, rows, joined)
	}
}

// uqlParseUS is the mean time of uql.Parse over the three statements.
func uqlParseUS() float64 {
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for s := range uqlStatements {
			if _, err := uql.Parse(uqlText(s, "Turku")); err != nil {
				return 0
			}
		}
	}
	return us(time.Since(t0)) / float64(reps*len(uqlStatements))
}

// tsIngestWireRound runs the timeseries suite served over loopback TCP
// by an in-process server in front of a durable engine with a
// write-ahead log, and restarts the engine from its log.
func tsIngestWireRound(seed uint64, k int, tr *tracer) (*roundResult, error) {
	r := newRound()
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var fs wal.FS = wal.OSFS{}
	var tfs *tracedFS
	if tr != nil {
		tfs = &tracedFS{FS: fs, tr: tr}
		fs = tfs
	}
	// The log flushes and fsyncs in the background (wal.SyncAsync), off
	// the path that acknowledges a commit. With fsync on that path
	// (group or always), set-up and the measured phase time the disk's
	// fsync latency, which moved threefold within minutes on the same
	// code: no run length holds that to a bound.
	opts := durable.Options{FS: fs, Policy: wal.SyncAsync}

	t0 := time.Now()
	var ds *datagen.TimeseriesDataset
	_ = tr.step("datagen.generate", "setup", func() error {
		ds = datagen.GenerateTimeseries(datagen.Config{ScaleFactor: tsSF, Seed: seed})
		return nil
	})
	gen := time.Since(t0)
	var ddb *durable.DB
	if err := tr.step("durable.open", "setup", func() error { ddb, err = durable.Open(dir, opts); return err }); err != nil {
		return nil, err
	}
	defer ddb.Close()
	tl := time.Now()
	if err := tr.step("stores.load", "setup", func() error { return ds.Load(storesOf(ddb.DB)) }); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	load := time.Since(tl)
	eng := workload.NewUDBMSEngine(ddb.DB)
	eng.Durable = ddb
	info := workload.Info{Customers: ds.NumSeries(), Products: ds.NumSeries(), Orders: ds.NumPoints()}
	var backend workload.Backend = eng
	var exec *execTimer
	if tr != nil {
		exec = &execTimer{Backend: eng, tr: tr}
		backend = exec
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.Serve(lis, server.Config{Engine: backend, DB: ddb.DB, Info: info, Suite: "timeseries"})
	defer srv.Close()
	remote, err := server.DialEngine(srv.Addr().String(), tsConns)
	if err != nil {
		return nil, err
	}
	defer remote.Close()
	r.setup = time.Since(t0)
	r.layer["datagen.generate_s"] = gen.Seconds()
	r.layer["stores.load_s"] = load.Seconds()
	r.layer["stores.live_heap_mb"] = liveHeapMB()
	st := ddb.Stats()
	r.counts["rows.series"], r.counts["kv"] = st.Tables["series"], st.KVPairs

	suite, _ := workload.SuiteByName("timeseries")
	mix := suite.Mix(remote)
	acked := make([]map[int]int, tsConns)
	clients := make([]*roundResult, tsConns)
	wal0, lock0 := ddb.DurabilityStats(), ddb.Manager().LockStats()
	io0 := tfs.mark()
	measure(r, tr, func() {
		var wg sync.WaitGroup
		for c := 0; c < tsConns; c++ {
			cr := newRound()
			clients[c], acked[c] = cr, map[int]int{}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				gen := workload.NewParamGen(info, paramSeed(seed, k, c), theta)
				pick := newPicker(paramSeed(seed, k, c+100), mix)
				for i := 0; i < tsOps; i++ {
					p := gen.Next()
					p.FreshID = gen.NewOrderID(uint64(k+1), c, i)
					item := pick.next()
					t := time.Now()
					err := tr.call("server.call", func(req uint64) error {
						if req != 0 {
							p.ProductID2 = fmt.Sprintf("req-%d", req)
						}
						return item.Run(p)
					})
					d := time.Since(t)
					cr.opSample(item.Name, d, err)
					if tr != nil {
						cr.pooled["server.call"] = append(cr.pooled["server.call"], d)
					}
					if err == nil && item.Name == "append" {
						acked[c][p.CustomerID]++
					}
				}
			}(c)
		}
		wg.Wait()
		for _, cr := range clients {
			r.merge(cr)
		}
	})
	adm := srv.Stats()
	walLayer(r, ddb.DurabilityStats().Delta(*wal0), tfs, io0)
	lockLayer(r, ddb.Manager().LockStats().Delta(lock0))
	if exec != nil {
		exec.mu.Lock()
		r.pooled["server.exec"] = exec.execs
		exec.mu.Unlock()
	}
	r.layer["server.queue_wait_p99_ms"] = ms(adm.QueueWaitP99NS)
	r.layer["server.queue_depth_max"] = float64(adm.QueueDepthMax)
	r.layer["server.shed"] = float64(adm.Shed())
	if adm.Shed() != 0 {
		r.failCheck("ts_ingest_wire: server shed %d requests", adm.Shed())
	}
	remote.Close()
	if err := srv.Close(); err != nil {
		return nil, fmt.Errorf("close server: %w", err)
	}
	appends := map[int]int{}
	for _, a := range acked {
		for s, n := range a {
			appends[s] += n
		}
	}
	checkSeries(r, "before restart", ds, ddb.DB, appends)
	r.layer["txn.versions_reclaimed"] = float64(ddb.Compact(0))
	if err := ddb.Close(); err != nil {
		return nil, fmt.Errorf("close log: %w", err)
	}

	var recs []float64
	for i := 0; i < tsReopens; i++ {
		var re *durable.DB
		runtime.GC()
		t := time.Now()
		err := tr.step("durable.open", "recover", func() error {
			re, err = durable.Open(dir, durable.Options{Policy: opts.Policy})
			return err
		})
		recs = append(recs, time.Since(t).Seconds())
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		if i == 0 {
			checkSeries(r, "after recovery", ds, re.DB, appends)
			r.layer["durable.log_mb"] = float64(re.Recovery.LogBytes) / mib
			r.layer["durable.replay_records_per_s"] = float64(re.Recovery.Records) / re.Recovery.Elapsed.Seconds()
		}
		if err := re.Close(); err != nil {
			return nil, fmt.Errorf("close recovered log: %w", err)
		}
	}
	r.recovery = seconds(median(recs))
	return r, nil
}

// scratchRoot holds the log directories of ts_ingest_wire rounds,
// inside the checkout the benchmark runs from.
const scratchRoot = ".bench_build/tmp"

func walLayer(r *roundResult, d wal.Stats, tfs *tracedFS, from [2]int) {
	if d.Batches > 0 {
		r.layer["wal.appends_per_batch"] = float64(d.Appends) / float64(d.Batches)
	}
	if d.Appends > 0 {
		r.layer["wal.fsyncs_per_append"] = float64(d.Fsyncs) / float64(d.Appends)
	}
	r.layer["wal.bytes_per_op"] = float64(d.Bytes) / float64(r.ops)
	if tfs == nil {
		return
	}
	tfs.mu.Lock()
	defer tfs.mu.Unlock()
	writes, syncs := tfs.writes[from[0]:], tfs.syncs[from[1]:]
	r.pooled["wal.sync"] = append(durs(nil), syncs...)
	r.layer["wal.fsync_ms_total"] = ms(syncs.sum())
	r.layer["wal.write_ms_total"] = ms(writes.sum())
}
