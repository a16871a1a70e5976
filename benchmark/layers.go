package main

// layerMetric declares one per-layer metric. Names are package.metric; every
// traced run prints all of them, 0 where the workload does not exercise the
// layer (which is itself the statement that the workload bypasses it).
// README.md says which end-to-end metric each should move, on which workload.
type layerMetric struct{ name, unit, better string }

var layerMetrics = []layerMetric{
	{"testbench.classe_eval_ms_p50", "ms", "lower"},
	{"testbench.classe_valid_share", "ratio", "higher"},
	{"testbench.classe_cold_eval_ms", "ms", "lower"},
	{"testbench.opamp_eval_us", "us", "lower"},
	{"testbench.eval_share", "ratio", "higher"},
	{"easybo.optimize_overhead_share", "ratio", "lower"},
	{"easybo.suggest_ms_p50", "ms", "lower"},
	{"easybo.suggest_ms_p90", "ms", "lower"},
	{"easybo.observe_us", "us", "lower"},
	{"easybo.best_y", "fom", "higher"},
	{"circuit.tran_us_per_step", "us", "lower"},
	{"circuit.newton_iters_per_step", "count", "lower"},
	{"circuit.lu_factors_per_step", "count", "lower"},
	{"circuit.op_us", "us", "lower"},
	{"circuit.ac_us_per_freq", "us", "lower"},
	{"sparse.lu_factor_us", "us", "lower"},
	{"sparse.lu_refactor_us", "us", "lower"},
	{"sparse.lu_solve_us", "us", "lower"},
	{"linalg.cholesky_ms_n150", "ms", "lower"},
	{"surrogate.refit_ms_p50", "ms", "lower"},
	{"surrogate.refits", "count", "lower"},
	{"surrogate.extend_ms_p50", "ms", "lower"},
	{"surrogate.extends", "count", "lower"},
	{"surrogate.with_pseudo_ms_p50", "ms", "lower"},
	{"surrogate.predict_calls_per_ask", "count", "lower"},
	{"surrogate.predict_us", "us", "lower"},
	{"surrogate.features_fit_ms_p50", "ms", "lower"},
	{"surrogate.features_extend_ms_p50", "ms", "lower"},
	{"surrogate.features_predict_us", "us", "lower"},
	{"core.propose_ms_p50", "ms", "lower"},
	{"core.asktell_self_us", "us", "lower"},
	{"core.pending_mean", "count", "lower"},
	{"optimize.maximize_us_per_eval", "us", "lower"},
	{"optimize.maximize_evals", "count", "lower"},
	{"acq.weighted_ns", "ns", "lower"},
	{"serve.client_ask_ms_p50", "ms", "lower"},
	{"serve.client_ask_ms_p90", "ms", "lower"},
	{"serve.client_tell_ms_p50", "ms", "lower"},
	{"serve.client_tell_ms_p90", "ms", "lower"},
	{"serve.handler_ask_ms_p50", "ms", "lower"},
	{"serve.handler_tell_ms_p50", "ms", "lower"},
	{"serve.http_overhead_ms", "ms", "lower"},
	{"serve.tell_resp_kb", "KB", "lower"},
	{"serve.ask_resp_kb", "KB", "lower"},
	{"serve.tell_resp_growth", "ratio", "lower"},
	{"serve.create_ms", "ms", "lower"},
	{"serve.status_get_ms", "ms", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.errors", "count", "lower"},
	{"serve.recover_ms_per_event", "ms", "lower"},
	{"serve.recover_sessions", "count", "lower"},
	{"wal.append_us_p50", "us", "lower"},
	{"wal.appends", "count", "lower"},
	{"wal.wait_durable_ms_p50", "ms", "lower"},
	{"wal.records_per_sync", "ratio", "higher"},
	{"wal.compactions", "count", "lower"},
	{"wal.compact_commit_ms", "ms", "lower"},
	{"wal.bytes_per_event", "B", "lower"},
	{"wal.load_session_ms", "ms", "lower"},
	{"loadgen.client_call_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// layerValues fills v from the traced blocks: span series get their quiet time
// over blocks like round trips, counters and shares come from the blocks.
func layerValues(v map[string]float64, t *samples) {
	q := t.quietLoose
	p50 := func(name string) float64 { return percentile(q(name), 50) }
	first := t.blocks[0]

	v["testbench.classe_eval_ms_p50"] = 1e3 * p50("testbench.classe_eval")
	if n := first.counts["classe_evals"]; n > 0 {
		v["testbench.classe_valid_share"] = first.counts["classe_valid"] / n
		v["easybo.optimize_overhead_share"] = 1 - t.medianScalar("eval_share")
	}
	v["testbench.opamp_eval_us"] = 1e6 * p50("testbench.opamp_eval")
	v["testbench.eval_share"] = t.medianScalar("eval_share")
	v["easybo.suggest_ms_p50"] = 1e3 * p50("easybo.suggest")
	v["easybo.suggest_ms_p90"] = 1e3 * percentile(q("easybo.suggest"), 90)
	v["easybo.observe_us"] = 1e6 * p50("easybo.observe")
	v["easybo.best_y"] = first.bestY

	v["surrogate.refit_ms_p50"] = 1e3 * p50("surrogate.refit")
	v["surrogate.refits"] = float64(len(q("surrogate.refit")))
	v["surrogate.extend_ms_p50"] = 1e3 * p50("surrogate.extend")
	v["surrogate.extends"] = float64(len(q("surrogate.extend")))
	v["surrogate.with_pseudo_ms_p50"] = 1e3 * p50("surrogate.with_pseudo")
	if asks := first.counts["asks"]; asks > 0 {
		v["surrogate.predict_calls_per_ask"] = first.counts["predict_calls"] / asks
	}
	v["surrogate.predict_us"] = t.minScalar("predict_us")
	v["core.propose_ms_p50"] = 1e3 * p50("core.propose")
	if n := len(q("easybo.suggest")); n > 0 {
		// What Suggest spends outside the fit and the proposer: the ledger
		// and the copies.
		self := sum(q("easybo.suggest")) - sum(q("surrogate.refit")) - sum(q("surrogate.extend")) - sum(q("core.propose"))
		v["core.asktell_self_us"] = 1e6 * self / float64(n)
	}
	v["core.pending_mean"] = t.medianScalar("pending_mean")

	ask, tell := q("serve.client_ask"), q("serve.client_tell")
	v["serve.client_ask_ms_p50"] = 1e3 * percentile(ask, 50)
	v["serve.client_ask_ms_p90"] = 1e3 * percentile(ask, 90)
	v["serve.client_tell_ms_p50"] = 1e3 * percentile(tell, 50)
	v["serve.client_tell_ms_p90"] = 1e3 * percentile(tell, 90)
	v["serve.handler_ask_ms_p50"] = 1e3 * p50("serve.handler_ask")
	v["serve.handler_tell_ms_p50"] = 1e3 * p50("serve.handler_tell")
	if n := len(tell); n > 0 {
		// Per round trip, what the client waits beyond the handlers: the
		// socket, net/http on both sides and the client's JSON.
		over := sum(ask) + sum(tell) - sum(q("serve.handler_ask")) - sum(q("serve.handler_tell"))
		v["serve.http_overhead_ms"] = 1e3 * over / float64(n)
	}
	v["serve.tell_resp_kb"] = t.medianScalar("tell_resp_kb")
	v["serve.ask_resp_kb"] = t.medianScalar("ask_resp_kb")
	v["serve.tell_resp_growth"] = t.medianScalar("tell_resp_growth")
	v["serve.create_ms"] = 1e3 * p50("serve.client_create"+setupSuffix)
	v["serve.status_get_ms"] = 1e3 * p50("serve.status_get")
	v["serve.shed"] = first.counts["shed"]
	v["serve.errors"] = first.counts["errors"]
	v["serve.recover_sessions"] = first.counts["recover_sessions"]

	v["wal.append_us_p50"] = 1e6 * p50("wal.append")
	v["wal.appends"] = first.counts["wal_appends"]
	if n := first.counts["wal_appends"]; n > 0 {
		v["serve.recover_ms_per_event"] = 1e3 * median(q("recover")) / n
	}
	v["wal.wait_durable_ms_p50"] = 1e3 * p50("wal.wait_durable")
	v["wal.records_per_sync"] = t.medianScalar("records_per_sync")
	v["wal.compactions"] = first.counts["wal_compactions"]
	v["wal.compact_commit_ms"] = 1e3 * p50("wal.compact_commit")
	v["wal.bytes_per_event"] = t.medianScalar("bytes_per_event")
	v["wal.load_session_ms"] = 1e3 * p50("wal.load_session")
}
