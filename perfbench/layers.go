package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/rpc"
)

// layerInput is everything the traced pass read around its measured
// phase.
type layerInput struct {
	tr *tracer
	p  *pass

	before, after promSnapshot // issuer registry

	rvBefore, rvAfter       core.RemoteValidatorStats
	rcBefore, rcAfter       rpc.ResilientMetrics
	filesBefore, filesAfter core.Stats
	feedBefore, feedAfter   event.FeedStats
}

// layerMetrics derives the per-layer breakdown of one traced pass.
func layerMetrics(in layerInput) map[string]metric {
	t := in.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := func(key string) []int64 { return t.spans[key] }
	c := t.counts
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	p50 := func(key string) float64 { return us(quantile(sp(key), 0.50)) }

	// gateway: handler time per endpoint, and what a validation's
	// handler time holds beyond the wire round trips it waited for.
	paired := sp("gateway.validate.paired")
	n := float64(len(paired))
	rpcBlocking := ratio(c["rpc.validate.blocking_ns"], n)
	coreBlocking := ratio(c["core.validate.blocking_ns"], n)
	gwSelf := mean(paired) - rpcBlocking
	overhead := mean(sp("http.client_overhead"))
	set("gateway.validate.self_us", us(gwSelf), "us")
	set("gateway.validate.p50_us", p50("gateway.validate"), "us")
	set("gateway.validate.p99_us", us(quantile(sp("gateway.validate"), 0.99)), "us")
	set("gateway.activate.p50_us", p50("gateway.activate"), "us")
	set("gateway.revoke.p50_us", p50("gateway.revoke"), "us")
	set("gateway.non2xx", c["gateway.non2xx"], "count")
	set("http.client_overhead_us", us(overhead), "us")

	// The blocking path of a validation: HTTP, gateway self, edge wire
	// round trip beyond the issuer's dispatch, dispatch. What remains of
	// the client's whole operation is the client's own request encoding
	// and verdict decoding, which no layer span covers.
	e2e := mean(sp("client.validate"))
	selfSum := overhead + gwSelf + (rpcBlocking - coreBlocking) + coreBlocking
	set("validate.mean_us", us(e2e), "us")
	set("unattributed_us", us(e2e-selfSum), "us")

	// core.EdgeCache.
	cb, ca := in.p.cacheBefore, in.p.cacheAfter
	hits := float64(ca.Hits - cb.Hits)
	lookups := hits + float64(ca.Misses-cb.Misses+ca.Bypassed-cb.Bypassed)
	set("edgecache.hit_ratio", ratio(hits, lookups), "ratio")
	set("edgecache.misses", float64(ca.Misses-cb.Misses), "count")
	set("edgecache.evictions", float64(ca.Evictions-cb.Evictions), "count")
	set("edgecache.bypassed", float64(ca.Bypassed-cb.Bypassed), "count")
	set("edgecache.invalidations", float64(ca.Invalidations-cb.Invalidations), "count")
	set("edgecache.entries", float64(ca.Entries), "count")
	set("edge.stale_polls_per_revoke", ratio(float64(in.p.stalePolls), float64(in.p.samples["revoke"])), "count")

	// core.RemoteValidator.
	rv := core.RemoteValidatorStats{
		Validations:         in.rvAfter.Validations - in.rvBefore.Validations,
		Errored:             in.rvAfter.Errored - in.rvBefore.Errored,
		BatchesSent:         in.rvAfter.BatchesSent - in.rvBefore.BatchesSent,
		BatchedValidations:  in.rvAfter.BatchedValidations - in.rvBefore.BatchedValidations,
		CallbackValidations: in.rvAfter.CallbackValidations - in.rvBefore.CallbackValidations,
	}
	wireCalls := float64(rv.CallbackValidations - rv.BatchedValidations + rv.BatchesSent)
	set("remoteval.wire_calls_per_verdict", ratio(wireCalls, float64(rv.Validations)), "ratio")
	set("remoteval.batched_share", ratio(float64(rv.BatchedValidations), float64(rv.CallbackValidations)), "ratio")
	set("remoteval.errored", float64(rv.Errored), "count")

	// rpc: the edge's OW2 round trips against the issuer's dispatch.
	set("rpc.validate.p50_us", p50("rpc.validate"), "us")
	set("rpc.activate.p50_us", p50("rpc.activate"), "us")
	set("rpc.revoke.p50_us", p50("rpc.revoke"), "us")
	set("rpc.bytes_per_call", ratio(c["rpc.bytes"], c["rpc.calls"]), "B")
	set("rpc.retries", float64(in.rcAfter.Retries-in.rcBefore.Retries), "count")
	set("rpc.self_us", us(ratio(c["rpc.ns"], c["rpc.calls"])-ratio(c["core.ns"], c["core.server_calls"])), "us")

	// core: the issuer's dispatch and its in-process callbacks.
	set("core.validate.p50_us", p50("core.validate"), "us")
	set("core.activate.p50_us", p50("core.activate"), "us")
	set("core.revoke.p50_us", p50("core.revoke"), "us")
	set("core.callback.p50_us", p50("core.callback"), "us")
	fh := float64(in.filesAfter.CacheHits - in.filesBefore.CacheHits)
	fm := float64(in.filesAfter.CacheMisses - in.filesBefore.CacheMisses)
	set("core.ecr_hit_ratio", ratio(fh, fh+fm), "ratio")

	// seq: the registry's histograms, both services merged.
	apply := mergeHist(in.before, in.after, "seq_apply_ns")
	set("seq.apply.count", apply.count, "count")
	set("seq.apply.p50_us", us(apply.quantile(0.50)), "us")
	set("seq.apply.p99_us", us(apply.quantile(0.99)), "us")
	set("seq.batch_size.mean", mergeHist(in.before, in.after, "seq_batch_size").mean(), "count")
	set("seq.mailbox_depth.p99", mergeHist(in.before, in.after, "seq_mailbox_depth").quantile(0.99), "count")

	// durable: the timing journal and the log's own counters.
	set("durable.append_group.p50_us", p50("durable.append_group"), "us")
	set("durable.append_group.p99_us", us(quantile(sp("durable.append_group"), 0.99)), "us")
	set("durable.records_per_group", ratio(c["durable.records"], c["durable.groups"]), "count")
	set("durable.wait_share", ratio(c["durable.waits"], c["durable.groups"]), "ratio")
	fsync := mergeHist(in.before, in.after, "durable_fsync_ns")
	set("durable.fsync.count", fsync.count, "count")
	set("durable.fsync.p50_us", us(fsync.quantile(0.50)), "us")
	set("durable.bytes_per_record", ratio(delta(in.before, in.after, "durable_append_bytes_total"),
		delta(in.before, in.after, "durable_append_records_total")), "B")

	// event: one revocation from dispatch to the edge's first refusal.
	var pre, publish, cascade, send, apply2 []int64
	for _, rs := range t.revs {
		if rs.sent == 0 || rs.dispatch == 0 || rs.loginPub == 0 || rs.filesPub == 0 || rs.feedSent == 0 || rs.refused == 0 {
			continue
		}
		pre = append(pre, rs.dispatch-rs.sent)
		publish = append(publish, rs.loginPub-rs.dispatch)
		cascade = append(cascade, rs.filesPub-rs.loginPub)
		send = append(send, rs.feedSent-rs.filesPub)
		apply2 = append(apply2, rs.refused-rs.feedSent)
	}
	set("event.traced_revocations", float64(len(pre)), "count")
	set("event.pre_dispatch_us", us(quantile(pre, 0.5)), "us")
	set("event.revoke_publish_us", us(quantile(publish, 0.5)), "us")
	set("event.cascade_us", us(quantile(cascade, 0.5)), "us")
	set("event.feed_send_us", us(quantile(send, 0.5)), "us")
	set("edge.apply_us", us(quantile(apply2, 0.5)), "us")
	set("event.feed_gaps", float64(in.feedAfter.Gaps-in.feedBefore.Gaps), "count")
	set("event.feed_dropped", float64(in.feedAfter.Dropped-in.feedBefore.Dropped), "count")

	// Layer traffic over the measured phase, for the stated predictions.
	set("rpc.calls", c["rpc.calls"], "count")
	set("core.calls", c["core.server_calls"]+c["core.callbacks"], "count")
	set("durable.groups", c["durable.groups"], "count")
	set("validate.count", float64(in.p.samples["validate"]), "count")
	return m
}

// checkPredictions holds a validation workload to what it claims to
// exercise: on validate_hot the edge answers alone, so the wire, the
// issuer core, the sequencer and the journal stay idle while it is measured;
// on validate_cold the issuer answers but the write path stays idle.
func checkPredictions(wl workload, layers map[string]metric) []string {
	validations := layers["validate.count"].Value
	idle := []string{"seq.apply.count", "durable.groups"}
	if wl.name == "validate_hot" {
		idle = append(idle, "rpc.calls", "core.calls")
	}
	var bad []string
	for _, name := range idle {
		// ≈0: at most one call per thousand validations.
		if v := layers[name].Value; v > validations/1000 {
			bad = append(bad, fmt.Sprintf("%s: prediction ≈0 failed: %s = %.0f over %.0f validations",
				wl.name, name, v, validations))
		}
	}
	return bad
}
