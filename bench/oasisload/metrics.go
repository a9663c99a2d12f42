package main

// The benchmark's metric catalogue. BENCHMARK.json at the repository
// root declares the same names, units, directions and bounds (a test
// holds the two together); bench/README.md explains each.

// e2eDecl declares one end-to-end metric.
type e2eDecl struct {
	name, unit, better string
	// bound is the share of the baseline by which the metric may
	// worsen before -compare (and the driver) call it a regression;
	// for failed_share it is an absolute rise. Each is at least three
	// times the spread (interquartile range over the median of ten
	// runs) of its noisiest workload; bench/README.md has the table.
	bound float64
	// gated metrics are reported by every workload and are never zero,
	// so they can be declared in BENCHMARK.json, whose metrics are
	// checked on every workload. The per-operation latencies exist
	// only where the operation is performed (a metric is omitted, not
	// zero, elsewhere); they are printed, recorded in result.json and
	// gated by -compare.
	gated bool
}

var endToEnd = []e2eDecl{
	{"setup_s", "s", "lower", 0.25, true},
	{"throughput_ops_s", "ref_ops/s", "higher", 0.15, true},
	{"server_cpu_us_per_op", "ref_us", "lower", 0.20, true},
	{"rss_peak_mb", "MB", "lower", 0.25, true},
	{"op_p50_us", "ref_us", "lower", 0.20, true},
	{"op_p90_us", "ref_us", "lower", 0.25, true},
	{"failed_share", "ratio", "lower", 0.001, false},
	{"introspect_p50_us", "ref_us", "lower", 0.20, false},
	{"introspect_p90_us", "ref_us", "lower", 0.25, false},
	{"issue_p50_us", "ref_us", "lower", 0.20, false},
	{"issue_p90_us", "ref_us", "lower", 0.25, false},
	{"revoke_p50_us", "ref_us", "lower", 0.20, false},
	{"revoke_p90_us", "ref_us", "lower", 0.25, false},
	{"peer_validate_p50_us", "ref_us", "lower", 0.20, false},
	{"peer_validate_p90_us", "ref_us", "lower", 0.25, false},
	{"revoke_visible_p50_us", "ref_us", "lower", 0.20, false},
	{"revoke_visible_p90_us", "ref_us", "lower", 0.25, false},
}

func e2eByName(name string) (e2eDecl, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return e2eDecl{}, false
}

// layerDecl declares one per-layer metric. Every one is measured on
// every traced run: the oasisd ones from a short untraced window on
// the workload's daemons, the rest by timing calls into the layer's
// public functions from the benchmark's own files (layers.go).
type layerDecl struct {
	name, unit, better string
}

var perLayer = []layerDecl{
	// oasisd: the process seen from outside.
	{"oasisd.op_p99_us", "us", "lower"},
	{"oasisd.cpu_user_share", "ratio", "lower"},
	{"oasisd.ctx_switches_per_op", "count", "lower"},
	{"oasisd.start_ms", "ms", "lower"},
	{"oasisd.trace_overhead_share", "ratio", "lower"},
	// gateway
	{"gateway.http_self_us", "us", "lower"},
	{"gateway.introspect_self_us", "us", "lower"},
	{"gateway.issue_self_us", "us", "lower"},
	{"gateway.revoke_self_us", "us", "lower"},
	{"gateway.introspect_allocs", "count", "lower"},
	{"gateway.introspect_bytes", "B", "lower"},
	{"gateway.issue_allocs", "count", "lower"},
	{"gateway.issue_bytes", "B", "lower"},
	{"gateway.revoke_allocs", "count", "lower"},
	{"gateway.shed_share", "ratio", "lower"},
	// oasis
	{"oasis.validate_ns", "ns", "lower"},
	{"oasis.enter_self_us", "us", "lower"},
	{"oasis.enter_remote_us", "us", "lower"},
	{"oasis.revoke_direct_us", "us", "lower"},
	{"oasis.cascade_us_per_dep", "us", "lower"},
	{"oasis.call_validate_us", "us", "lower"},
	{"oasis.enter_allocs", "count", "lower"},
	{"oasis.validate_allocs", "count", "lower"},
	// rdl
	{"rdl.eval_rule_ns", "ns", "lower"},
	{"rdl.load_us", "us", "lower"},
	// cert
	{"cert.sign_ns", "ns", "lower"},
	{"cert.verify_cached_ns", "ns", "lower"},
	{"cert.verify_cold_ns", "ns", "lower"},
	// credrec
	{"credrec.lookup_ns", "ns", "lower"},
	{"credrec.sharded_lookup_ns", "ns", "lower"},
	{"credrec.new_derived_ns", "ns", "lower"},
	{"credrec.invalidate_us_per_dep", "us", "lower"},
	{"credrec.sweep_us_per_krec", "us", "lower"},
	{"credrec.live_records", "count", "lower"},
	// storage
	{"storage.append_us", "us", "lower"},
	{"storage.journal_bytes_per_op", "B", "lower"},
	{"storage.snapshot_ms", "ms", "lower"},
	{"storage.recover_ms", "ms", "lower"},
	{"storage.dir_bytes_end", "B", "lower"},
	// bus
	{"bus.encode_validate_ns", "ns", "lower"},
	{"bus.decode_validate_ns", "ns", "lower"},
	{"bus.validate_wire_bytes", "B", "lower"},
	{"bus.call_self_us", "us", "lower"},
	{"bus.notify_us_per_note", "us", "lower"},
	{"bus.coalesce_ratio", "ratio", "higher"},
	{"bus.tree_forward_us", "us", "lower"},
	// event
	{"event.signal_us", "us", "lower"},
	{"event.signal_allocs", "count", "lower"},
}
