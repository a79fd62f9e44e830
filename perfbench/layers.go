package main

// layerMetric is one per-layer metric of a traced run.
type layerMetric struct {
	name, unit, better string
}

// opClasses are the op classes of all three workloads; each gets a
// p50 and a p99 on every workload (zero where it does not run).
var opClasses = []string{
	"q1", "t1", "t2", "t3", "t4", // t2_mix
	"q4", "q8", "q11", "q12", "q13", "uql", // analytic_reads (and q1)
	"append", "window", "aggregate", "latest", // ts_ingest_wire
}

// layerMetrics lists every per-layer metric in the order BENCHMARK.json
// names them. Metrics of a layer a workload does not touch read 0.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"datagen.generate_s", "s", "lower"},
		{"stores.load_s", "s", "lower"},
		{"stores.live_heap_mb", "MB", "lower"},
	}
	for _, op := range opClasses {
		ms = append(ms,
			layerMetric{"workload." + op + "_p50_ms", "ms", "lower"},
			layerMetric{"workload." + op + "_p99_ms", "ms", "lower"})
	}
	return append(ms,
		layerMetric{"workload.p99_ms", "ms", "lower"},
		layerMetric{"workload.samples", "count", "higher"},
		layerMetric{"udbms.q1_isolated_mean_ms", "ms", "lower"},
		layerMetric{"udbms.q1_mix_over_isolated", "ratio", "lower"},
		layerMetric{"uql.parse_us", "us", "lower"},
		layerMetric{"txn.lock_acquires_per_op", "count", "lower"},
		layerMetric{"txn.lock_waits_per_op", "count", "lower"},
		layerMetric{"txn.lock_wait_ms", "ms", "lower"},
		layerMetric{"txn.shared_fast_ratio", "ratio", "higher"},
		layerMetric{"txn.deadlock_victims", "count", "lower"},
		layerMetric{"txn.versions_reclaimed", "count", "lower"},
		layerMetric{"wal.appends_per_batch", "ratio", "higher"},
		layerMetric{"wal.fsyncs_per_append", "ratio", "lower"},
		layerMetric{"wal.bytes_per_op", "B", "lower"},
		layerMetric{"wal.fsync_p50_us", "us", "lower"},
		layerMetric{"wal.fsync_ms_total", "ms", "lower"},
		layerMetric{"wal.write_ms_total", "ms", "lower"},
		layerMetric{"durable.log_mb", "MB", "lower"},
		layerMetric{"durable.replay_records_per_s", "1/s", "higher"},
		layerMetric{"server.roundtrip_p50_ms", "ms", "lower"},
		layerMetric{"server.exec_p50_ms", "ms", "lower"},
		layerMetric{"server.overhead_p50_ms", "ms", "lower"},
		layerMetric{"server.queue_wait_p99_ms", "ms", "lower"},
		layerMetric{"server.queue_depth_max", "count", "lower"},
		layerMetric{"server.shed", "count", "lower"},
		layerMetric{"runtime.alloc_mb_per_kop", "MB", "lower"},
		layerMetric{"runtime.gc_cycles", "count", "lower"},
		layerMetric{"runtime.gc_cpu_fraction", "ratio", "lower"},
		layerMetric{"runtime.gc_pause_p99_us", "us", "lower"},
		layerMetric{"trace.overhead_pct", "%", "lower"},
		layerMetric{"trace.udbms_self_us_per_op", "us", "lower"},
		layerMetric{"trace.uql_self_us_per_op", "us", "lower"},
		layerMetric{"trace.client_self_us_per_op", "us", "lower"},
		layerMetric{"trace.server_exec_self_us_per_op", "us", "lower"},
		layerMetric{"trace.wal_write_self_us_per_op", "us", "lower"},
		layerMetric{"trace.wal_sync_self_us_per_op", "us", "lower"},
		layerMetric{"trace.spans", "count", "higher"},
	)
}

// selfLayers maps span layers to the metric carrying their self time
// per measured op.
var selfLayers = map[string]string{
	"udbms":       "trace.udbms_self_us_per_op",
	"uql":         "trace.uql_self_us_per_op",
	"server.call": "trace.client_self_us_per_op",
	"server.exec": "trace.server_exec_self_us_per_op",
	"wal.write":   "trace.wal_write_self_us_per_op",
	"wal.sync":    "trace.wal_sync_self_us_per_op",
}

// perLayerMetrics combines the traced rounds of a run: per-round values
// by their median, pooled samples by their percentiles, span self times
// per measured op. plain are the run's untraced rounds, against which
// the tracing overhead is taken.
func perLayerMetrics(plain, traced []*roundResult, tr *tracer) map[string]metricValue {
	vals := map[string]float64{}
	per := map[string][]float64{}
	pooled := map[string]durs{}
	ops := 0
	for _, r := range traced {
		ops += r.ops
		for k, v := range r.layer {
			per[k] = append(per[k], v)
		}
		for k, v := range r.pooled {
			pooled[k] = append(pooled[k], v...)
		}
	}
	for k, v := range per {
		vals[k] = median(v)
	}
	var all durs
	for _, op := range opClasses {
		s := pooled["workload."+op]
		all = append(all, s...)
		vals["workload."+op+"_p50_ms"] = ms(s.quantile(0.5))
		vals["workload."+op+"_p99_ms"] = ms(s.quantile(0.99))
	}
	vals["workload.p99_ms"] = ms(all.quantile(0.99))
	vals["workload.samples"] = float64(len(all))
	if iso := vals["udbms.q1_isolated_mean_ms"]; iso > 0 {
		vals["udbms.q1_mix_over_isolated"] = ms(pooled["workload.q1"].mean()) / iso
	}
	if fs := pooled["wal.sync"]; len(fs) > 0 {
		vals["wal.fsync_p50_us"] = us(fs.quantile(0.5))
	}
	rt, ex := pooled["server.call"].quantile(0.5), pooled["server.exec"].quantile(0.5)
	vals["server.roundtrip_p50_ms"] = ms(rt)
	vals["server.exec_p50_ms"] = ms(ex)
	vals["server.overhead_p50_ms"] = ms(rt - ex)
	if ops > 0 {
		for layer, d := range tr.selfTimes("measure") {
			if m, ok := selfLayers[layer]; ok {
				vals[m] = us(d) / float64(ops)
			}
		}
	}
	tr.mu.Lock()
	vals["trace.spans"] = float64(len(tr.spans))
	tr.mu.Unlock()
	var plainRate, tracedRate []float64
	for _, r := range plain {
		plainRate = append(plainRate, float64(r.ops)/r.elapsed.Seconds())
	}
	for _, r := range traced {
		tracedRate = append(tracedRate, float64(r.ops)/r.elapsed.Seconds())
	}
	if u := median(plainRate); u > 0 {
		vals["trace.overhead_pct"] = (1 - median(tracedRate)/u) * 100
	}
	out := map[string]metricValue{}
	for _, m := range layerMetrics() {
		out[m.name] = metricValue{vals[m.name], m.unit}
	}
	return out
}
