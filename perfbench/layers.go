package main

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []string{
	"setup_s", "trials_per_s", "jobs_per_s", "miss_p50_ms", "miss_p90_ms", "max_rss_mb",
}

// perLayer lists the metrics a traced run reports, with their units. A
// layer a workload never reaches reports 0 (the kernel and trial layers on
// the serve workloads, the serve layers on the sweeps).
var perLayer = []struct{ name, unit string }{
	// Workload construction, replayed through public calls.
	{"data.gen_s", "s"}, {"train.sgd_s", "s"}, {"train.evaluate_s", "s"}, {"swim.sensitivity_s", "s"},
	// Trial composition (program, mapping, device, swim).
	{"program.trial_s", "s"}, {"program.new_trial_s", "s"}, {"mapping.new_s", "s"},
	{"program.spend_verify_s", "s"}, {"mapping.cycles", "count"}, {"device.ns_per_cycle", "ns"},
	{"program.spend_insitu_s", "s"}, {"swim.insitu_steps", "count"}, {"program.insitu_share", "ratio"},
	// Evaluation.
	{"mapping.accuracy_s", "s"}, {"mapping.accuracy_calls", "count"}, {"eval.plan_execs", "count"},
	{"eval.plan_s", "s"}, {"eval.us_per_image", "us"}, {"eval.overhead_s", "s"}, {"eval.epilogue_s", "s"},
	{"eval.trial_share", "ratio"},
	// Kernel primitives, through the timing decorator.
	{"kernel.conv2d.calls", "count"}, {"kernel.conv2d_s", "s"}, {"kernel.conv2d.gmacs", "GMAC"},
	{"kernel.conv2d.mb", "MB"}, {"kernel.conv2d.gmac_per_s", "GMAC/s"},
	{"kernel.linear.calls", "count"}, {"kernel.linear_s", "s"}, {"kernel.linear.gmacs", "GMAC"}, {"kernel.linear.mb", "MB"},
	{"kernel.matmul.calls", "count"}, {"kernel.matmul_s", "s"}, {"kernel.matmul.gmacs", "GMAC"}, {"kernel.matmul.mb", "MB"},
	{"kernel.im2col.calls", "count"}, {"kernel.im2col_s", "s"}, {"kernel.im2col.gmacs", "GMAC"}, {"kernel.im2col.mb", "MB"},
	// Monte-Carlo engine.
	{"mc.busy_frac", "ratio"}, {"mc.tail_s", "s"}, {"mc.worker_parks", "count"},
	// Serving: client spans, job timestamps and /v1/metrics deltas.
	{"serve.submit_p50_ms", "ms"}, {"serve.fetch_p50_ms", "ms"}, {"serialize.decode_p50_ms", "ms"},
	{"serialize.result_bytes", "bytes"}, {"serve.hit_p50_ms", "ms"}, {"serve.hit_p90_ms", "ms"},
	{"serve.hit_samples", "count"}, {"serve.miss_samples", "count"},
	{"serve.queue_wait_p50_ms", "ms"}, {"serve.queue_wait_p90_ms", "ms"}, {"serve.run_p50_ms", "ms"},
	{"serve.hit_ratio", "ratio"}, {"serve.coalesced", "count"}, {"serve.jobs_executed", "count"},
	{"serve.shards_dispatched", "count"}, {"serve.shard_retries", "count"}, {"serve.shard_p50_ms", "ms"},
	{"serve.trials_per_shard", "count"},
	// Traced wall time ÷ untraced wall time for the same work.
	{"trace.overhead", "ratio"},
}

// complete adds every per-layer metric a traced run did not reach as 0, and
// reports the names of metrics that are not declared.
func completePerLayer(m metrics) (undeclared []string) {
	known := map[string]bool{}
	for _, l := range perLayer {
		known[l.name] = true
		if _, ok := m[l.name]; !ok {
			m.set(l.name, 0, l.unit)
		}
	}
	for k := range m {
		if !known[k] {
			undeclared = append(undeclared, k)
		}
	}
	return undeclared
}
