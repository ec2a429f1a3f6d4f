// Command benchtab regenerates every figure/scenario experiment of the
// paper (see DESIGN.md's experiment index) and prints paper-style rows.
//
// Usage:
//
//	benchtab                 # run every experiment
//	benchtab -exp fig5       # run one experiment
//	benchtab -list           # list experiment ids
//	benchtab -json out.json  # also write machine-readable rows (parallel)
//
// Experiment ids: fig1 fig2 fig3 fig4 fig5 auth sect5 sect6 baselines
// soak parallel faults obs recover wire capacity gateway edgecache
// replication seqcore
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
)

// jsonPath, when set, receives the parallel-scaling rows as a JSON array
// (one row per benchmark x GOMAXPROCS point) — the BENCH_*.json seed.
// faultsJSONPath does the same for the E12 fault-injection rows, and
// obsJSONPath for the E13 observability-overhead rows.
var (
	jsonPath            string
	faultsJSONPath      string
	obsJSONPath         string
	recoverJSONPath     string
	wireJSONPath        string
	capacityJSONPath    string
	gatewayJSONPath     string
	edgecacheJSONPath   string
	replicationJSONPath string
	seqcoreJSONPath     string
	quick               bool
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids")
	flag.StringVar(&jsonPath, "json", "", "write parallel-scaling rows to this JSON file")
	flag.StringVar(&faultsJSONPath, "faults-json", "", "write fault-injection rows to this JSON file")
	flag.StringVar(&obsJSONPath, "obs-json", "", "write observability-overhead rows to this JSON file")
	flag.StringVar(&recoverJSONPath, "recover-json", "", "write durability overhead + recovery-time rows to this JSON file")
	flag.StringVar(&wireJSONPath, "wire-json", "", "write wire hot-path rows to this JSON file")
	flag.StringVar(&capacityJSONPath, "capacity-json", "", "write million-principal capacity rows to this JSON file")
	flag.StringVar(&gatewayJSONPath, "gateway-json", "", "write HTTP edge gateway rows to this JSON file")
	flag.StringVar(&edgecacheJSONPath, "edgecache-json", "", "write edge verdict cache rows to this JSON file")
	flag.StringVar(&replicationJSONPath, "replication-json", "", "write journal replication rows to this JSON file")
	flag.StringVar(&seqcoreJSONPath, "seqcore-json", "", "write sequencer-core write-path rows to this JSON file")
	flag.BoolVar(&quick, "quick", false, "shrink sample counts and windows (CI smoke, not for published numbers)")
	flag.Parse()
	if err := run(*exp, *list); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

var experimentsTable = map[string]func(*tabwriter.Writer) error{
	"fig1":        runFig1,
	"fig2":        runFig2,
	"fig3":        runFig3,
	"fig4":        runFig4,
	"fig5":        runFig5,
	"auth":        runAuth,
	"sect5":       runSect5,
	"sect6":       runSect6,
	"baselines":   runBaselines,
	"soak":        runSoak,
	"parallel":    runParallelScaling,
	"faults":      runFaults,
	"obs":         runObs,
	"recover":     runRecover,
	"wire":        runWire,
	"capacity":    runCapacity,
	"gateway":     runGateway,
	"edgecache":   runEdgecache,
	"replication": runReplication,
	"seqcore":     runSeqcore,
}

func run(exp string, list bool) error {
	ids := make([]string, 0, len(experimentsTable))
	for id := range experimentsTable {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush() //nolint:errcheck
	if exp != "" {
		f, ok := experimentsTable[exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", exp)
		}
		return f(w)
	}
	for _, id := range ids {
		if err := experimentsTable[id](w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFig1(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E1 / Fig. 1: role dependency through prerequisite roles ==")
	fmt.Fprintln(w, "depth\tsessions\tcerts\tcallback validations\ttotal activate time")
	for _, depth := range []int{1, 2, 4, 8} {
		for _, fanout := range []int{1, 4} {
			row, err := experiments.RunFig1(depth, fanout)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%v\n",
				row.Depth, row.Fanout, row.CertsIssued, row.Validations, row.ActivateTime.Round(time.Microsecond))
		}
	}
	return nil
}

func runFig2(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E2 / Fig. 2: role entry + service use, callback vs cached validation ==")
	fmt.Fprintln(w, "mode\tinvocations\tcallbacks\tcache hits\tper-invoke")
	for _, cached := range []bool{false, true} {
		row, err := experiments.RunFig2(1000, cached)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%v\n",
			row.Mode, row.Invocations, row.Callbacks, row.CacheHits, row.PerInvoke.Round(100*time.Nanosecond))
	}
	return nil
}

func runFig3(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E3 / Fig. 3: cross-domain EHR session ==")
	fmt.Fprintln(w, "hospitals\tpatients\trequests\tappends\taudit records\taudit complete\tper-op")
	for _, cfg := range []struct{ h, p, ops int }{
		{1, 100, 500},
		{4, 1000, 2000},
		{16, 10000, 4000},
	} {
		row, err := experiments.RunFig3(cfg.h, cfg.p, cfg.ops)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%v\t%v\n",
			row.Hospitals, row.Patients, row.Requests, row.Appends,
			row.AuditRecords, row.AuditOK, row.PerOp.Round(100*time.Nanosecond))
	}
	return nil
}

func runFig4(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E4 / Fig. 4: RMC issue/validate cost by parameter count ==")
	fmt.Fprintln(w, "params\tissue\tvalidate")
	for _, p := range []int{0, 2, 4, 8} {
		row, err := experiments.RunFig4(p, 5000)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%v\t%v\n", row.Params, row.IssueNs, row.ValidateNs)
	}
	adv, err := experiments.RunFig4Adversarial(2000)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "attack\ttrials\taccepted (must be 0)")
	fmt.Fprintf(w, "tamper\t%d\t%d\n", adv.Trials, adv.TamperAccepted)
	fmt.Fprintf(w, "theft\t%d\t%d\n", adv.Trials, adv.TheftAccepted)
	fmt.Fprintf(w, "forgery\t%d\t%d\n", adv.Trials, adv.ForgeryAccepted)
	fmt.Fprintf(w, "appt theft\t%d\t%d\n", adv.Trials, adv.ApptTheftAccepted)
	return nil
}

func runFig5(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E5 / Fig. 5: active revocation cascade ==")
	fmt.Fprintln(w, "shape\ttarget\troles\tcollapse latency\tevents\tcorrect subtree")
	for _, cfg := range []struct {
		shape  string
		n      int
		target string
	}{
		{"chain", 10, "root"}, {"chain", 100, "root"}, {"chain", 100, "leaf"},
		{"star", 10, "root"}, {"star", 100, "root"}, {"star", 1000, "root"},
		{"star", 1000, "leaf"},
	} {
		row, err := experiments.RunFig5Target(cfg.n, cfg.shape, cfg.target)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%d\t%v\n",
			row.Shape, row.Target, row.Roles, row.RevokeLatency.Round(time.Microsecond),
			row.EventsDelivered, row.AllCollapsed)
	}
	return nil
}

func runAuth(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E6 / Sect. 4.1: ISO/9798 challenge-response session binding ==")
	row, err := experiments.RunAuth(500)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "rounds\tper round\tall honest passed\twrong-key accepted (must be 0)")
	fmt.Fprintf(w, "%d\t%v\t%v\t%d\n", row.Rounds, row.PerRound.Round(time.Microsecond),
		row.AllPassed, row.WrongKeyOK)
	return nil
}

func runSect5(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E7 / Sect. 5: visiting doctor across domains ==")
	fmt.Fprintln(w, "doctors\trefused without SLA\tactivated under SLA\tper activation")
	for _, n := range []int{10, 100, 500} {
		row, err := experiments.RunSect5(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\n",
			row.Doctors, row.RefusedNoSLA, row.Activated, row.PerActivation.Round(100*time.Nanosecond))
	}
	return nil
}

func runSect6(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E8 / Sect. 6: web of trust under byzantine minorities ==")
	fmt.Fprintln(w, "population\tbyz frac\tnaive accepts bad\twary accepts bad\thonest accepted\tdecide time")
	for _, frac := range []float64{0, 0.1, 0.2, 0.4} {
		row, err := experiments.RunSect6(100, frac, 20)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%.0f%%\t%d/%d\t%d/%d\t%d/%d\t%v\n",
			row.Population, row.ByzantineFrac*100,
			row.NaiveAcceptBad, row.BadTotal,
			row.WaryAcceptBad, row.BadTotal,
			row.HonestAcceptedOK, row.HonestTotal,
			row.DecideTime.Round(time.Millisecond))
	}
	return nil
}

func runSoak(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== Soak: healthcare workload with continuous churn, invariant-checked ==")
	fmt.Fprintln(w, "doctors\tpatients\tops\treads\tdenied\trevocations\tchurns\tviolations (must be 0)\tper-op")
	for _, cfg := range []struct{ d, p, ops int }{
		{3, 20, 1000},
		{10, 200, 5000},
		{20, 1000, 10000},
	} {
		row, err := experiments.RunSoak(cfg.d, cfg.p, cfg.ops, 42)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			row.Doctors, row.Patients, row.Ops, row.Reads, row.Denied,
			row.Revocations, row.Churns, row.Violations, row.PerOp.Round(100*time.Nanosecond))
	}
	return nil
}

func runParallelScaling(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E11: hot-path throughput under concurrent load (goroutines = GOMAXPROCS) ==")
	fmt.Fprintln(w, "benchmark\tprocs\tops\tns/op\tops/sec")
	rows, err := experiments.RunParallelScaling([]int{1, 4, 8}, 150*time.Millisecond)
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.0f\n",
			row.Benchmark, row.Procs, row.Ops, row.NsPerOp, row.OpsPerSec)
	}
	if jsonPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(rows written to %s)\n", jsonPath)
	return nil
}

func runFaults(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E12: fault injection — retry, circuit breaker, degraded validation ==")
	fmt.Fprintln(w, "scenario\tauthorized\twire calls\tretries\tfast fails\tbreaker\tdegraded hits\tnote")
	rows, err := experiments.RunFaults()
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%v\t%d\t%d\t%d\t%s\t%d\t%s\n",
			row.Scenario, row.Authorized, row.TransportCalls, row.Retries,
			row.FastFails, row.Breaker, row.DegradedHits, row.Note)
	}
	if faultsJSONPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(faultsJSONPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(rows written to %s)\n", faultsJSONPath)
	return nil
}

func runObs(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E13: observability overhead — hot paths with metrics + tracing attached ==")
	fmt.Fprintln(w, "benchmark\tprocs\tbase ns/op\tobs ns/op\toverhead\ttrace events")
	rows, err := experiments.RunObsOverhead([]int{1, 8}, 150*time.Millisecond, 3)
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%+.2f%%\t%d\n",
			row.Benchmark, row.Procs, row.BaseNsPerOp, row.ObsNsPerOp,
			row.OverheadPct, row.TraceEvents)
	}
	if obsJSONPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(obsJSONPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(rows written to %s)\n", obsJSONPath)
	return nil
}

func runRecover(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E14: durability — journaling overhead on hot paths, recovery time vs journal size ==")
	fmt.Fprintln(w, "benchmark\tprocs\tbase ns/op\tdurable ns/op\toverhead\tappended")
	// Overhead is defined on the hot path with a core available for the
	// background committer (procs >= 2): at GOMAXPROCS=1 the measurement
	// would conflate the foreground issue path with the deliberately
	// offloaded encode/write/fsync work sharing the only core.
	overhead, err := experiments.RunRecoverOverhead([]int{2, 8}, 120*time.Millisecond, 8)
	if err != nil {
		return err
	}
	for _, row := range overhead {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%+.2f%%\t%d\n",
			row.Benchmark, row.Procs, row.BaseNsPerOp, row.DurableNsPerOp,
			row.OverheadPct, row.Appended)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nrecords\tcompacted\tbytes read at boot\treplayed\trecovery")
	recovery, err := experiments.RunRecoverTime([]int{1_000, 10_000, 100_000})
	if err != nil {
		return err
	}
	for _, row := range recovery {
		fmt.Fprintf(w, "%d\t%v\t%d\t%d\t%.2fms\n",
			row.Records, row.Compacted, row.JournalBytes, row.Replayed, row.RecoverMs)
	}
	if recoverJSONPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(experiments.RecoverResult{Overhead: overhead, Recovery: recovery}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(recoverJSONPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(rows written to %s)\n", recoverJSONPath)
	return nil
}

func runWire(w *tabwriter.Writer) error {
	// Fan-in windows are long enough to ride out scheduler and GC noise;
	// a storm cycles in ~1ms, so 2s covers thousands of herd round trips.
	latencyOps, window := 2000, 2*time.Second
	if quick {
		latencyOps, window = 200, 80*time.Millisecond
	}
	res, err := experiments.RunWire([]int{2, 8}, latencyOps, window)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== E15: wire hot path — framing, batched validation, binary codecs ==")
	fmt.Fprintln(w, "protocol\tops\tmedian\tp99")
	for _, row := range res.Latency {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\n", row.Mode, row.Ops,
			time.Duration(row.MedianNs).Round(100*time.Nanosecond),
			time.Duration(row.P99Ns).Round(100*time.Nanosecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nmode\tprocs\tworkers\tinvocations\tops/sec\tbatches\tbatched validations\tbytes sent/op")
	for _, row := range res.Fanin {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f\t%d\t%d\t%.0f\n",
			row.Mode, row.Procs, row.Workers, row.Invocations, row.OpsPerSec,
			row.BatchesSent, row.BatchedValidations, row.BytesSentPerOp)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\ncodec\tpayload\tbytes/op\tallocs/op\tns/op")
	for _, row := range res.Codec {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.1f\t%.0f\n",
			row.Codec, row.Payload, row.BytesPerOp, row.AllocsPerOp, row.NsPerOp)
	}
	if wireJSONPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(wireJSONPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(rows written to %s)\n", wireJSONPath)
	return nil
}

func runGateway(w *tabwriter.Writer) error {
	// 24 workers is far past the serialized overload backend's ~500
	// verdicts/sec capacity, so the admission comparison always saturates;
	// quick mode only proves the machinery end to end.
	latencyOps, window, workers := 1000, 2*time.Second, 24
	if quick {
		latencyOps, window, workers = 100, 80*time.Millisecond, 8
	}
	res, err := experiments.RunGateway(latencyOps, window, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== E17: HTTP edge gateway — edge tax, batched fan-in, overload admission ==")
	fmt.Fprintln(w, "mode\tops\tmedian\tp99")
	for _, row := range res.Latency {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\n", row.Mode, row.Ops,
			time.Duration(row.MedianNs).Round(100*time.Nanosecond),
			time.Duration(row.P99Ns).Round(100*time.Nanosecond))
	}
	fmt.Fprintf(w, "edge tax (median)\t%v\n", time.Duration(res.EdgeTaxNs).Round(100*time.Nanosecond))
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nmode\tissuer µs/call\tworkers\trequests\tops/sec\tbatches\tbatched validations")
	for _, row := range res.Fanin {
		fmt.Fprintf(w, "%s\t%.0f\t%d\t%d\t%.0f\t%d\t%d\n",
			row.Mode, row.IssuerUs, row.Workers, row.Requests, row.OpsPerSec,
			row.BatchesSent, row.BatchedValidations)
	}
	fmt.Fprintf(w, "http_batched / raw_per_call (issuer-bound)\t%.2fx\n", res.FaninHTTPOverRaw)
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nadmission\tworkers\taccepted\tshed 503\tshed 429\taccepted p50\taccepted p99")
	for _, row := range res.Overload {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%v\t%v\n",
			row.Admission, row.Workers, row.Accepted, row.Shed503, row.Shed429,
			time.Duration(row.AcceptedP50Ns).Round(100*time.Nanosecond),
			time.Duration(row.AcceptedP99Ns).Round(100*time.Nanosecond))
	}
	if gatewayJSONPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(gatewayJSONPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(rows written to %s)\n", gatewayJSONPath)
	return nil
}

func runEdgecache(w *tabwriter.Writer) error {
	// The latency rows are sequential verdicts; the kill-the-cert and
	// severed sections are event-driven and need no scaling — quick mode
	// only shrinks the measured sample.
	latencyOps := 1000
	if quick {
		latencyOps = 100
	}
	res, err := experiments.RunEdgecache(latencyOps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== E18: event-fed edge verdict cache — hit latency, event-bound invalidation, fail-closed feed loss ==")
	fmt.Fprintln(w, "mode\tops\tmedian\tp99")
	for _, row := range res.Latency {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\n", row.Mode, row.Ops,
			time.Duration(row.MedianNs).Round(100*time.Nanosecond),
			time.Duration(row.P99Ns).Round(100*time.Nanosecond))
	}
	fmt.Fprintf(w, "edge_cached / local_inproc (median)\t%.2fx (ceiling 2x)\n", res.CachedOverLocal)
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nkill-the-cert\trevoke -> invalidation\tissuer calls (must be 0)\trefused after")
	fmt.Fprintf(w, "\t%v\t%d\t%v\n",
		time.Duration(res.Kill.InvalidateNs).Round(time.Microsecond),
		res.Kill.IssuerCallsDuringKill, res.Kill.RefusedAfter)
	fmt.Fprintln(w, "\nsevered feed\tsever -> detach\tbypassed\tstale positive (must be false)\tresumed hits")
	fmt.Fprintf(w, "\t%v\t%d\t%v\t%d\n",
		time.Duration(res.Severed.DetachNs).Round(time.Microsecond),
		res.Severed.BypassedDuringOutage, res.Severed.StalePositive, res.Severed.ResumedHits)
	if len(res.Violations) > 0 {
		return fmt.Errorf("edgecache violations: %v", res.Violations)
	}
	if edgecacheJSONPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(edgecacheJSONPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(rows written to %s)\n", edgecacheJSONPath)
	return nil
}

func runCapacity(w *tabwriter.Writer) error {
	// The published numbers run at a million resident principals; quick
	// mode shrinks the population for CI smoke, where only the machinery
	// (both variants, eviction, expiry waves, cascade) is under test.
	principals, ops, cascade := 1_000_000, 200_000, 100_000
	if quick {
		principals, ops, cascade = 20_000, 20_000, 5_000
	}
	res, err := experiments.RunCapacity(principals, ops, cascade)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== E16: million-principal capacity — compact resident state under churn ==")
	fmt.Fprintln(w, "variant\tprincipals\tresident MB\tbytes/principal\tresident CRs\tcached validations\tintern entries\tpopulate")
	for _, row := range res.Resident {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.0f\t%d\t%d\t%d\t%.0fms\n",
			row.Variant, row.Principals, float64(row.ResidentBytes)/(1<<20),
			row.BytesPerPrincipal, row.ResidentCRs, row.CachedValidations,
			row.InternEntries, row.PopulateMs)
	}
	fmt.Fprintf(w, "bytes/principal improvement\t%+.1f%%\n", res.ImprovementPct)
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nvariant\tops\tp50\tp99\tallocs/op\tauthorized\tdenied\trevocations\tappts expired")
	for _, row := range res.Churn {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%.1f\t%d\t%d\t%d\t%d\n",
			row.Variant, row.Ops,
			time.Duration(row.P50Ns).Round(100*time.Nanosecond),
			time.Duration(row.P99Ns).Round(100*time.Nanosecond),
			row.AllocsPerOp, row.Authorized, row.Denied, row.Revocations, row.ApptExpired)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nvariant\tcascade certs\tcollapse\tfully collapsed")
	for _, row := range res.Cascade {
		fmt.Fprintf(w, "%s\t%d\t%.2fms\t%v\n", row.Variant, row.Certs, row.CollapseMs, row.Collapsed)
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("capacity violations: %v", res.Violations)
	}
	if capacityJSONPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(capacityJSONPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(rows written to %s)\n", capacityJSONPath)
	return nil
}

func runReplication(w *tabwriter.Writer) error {
	// The failover burst and throughput windows shrink in quick mode;
	// the staleness bound stays real time either way (it is the thing
	// under test, not a sample count).
	cfg := experiments.ReplicationConfig{
		Credentials: 400,
		Window:      1500 * time.Millisecond,
		PerCall:     400 * time.Microsecond,
		Workers:     6,
	}
	if quick {
		cfg.Credentials, cfg.Window = 60, 200*time.Millisecond
	}
	res, err := experiments.RunReplication(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== E19: journal replication — replica kill mid-burst, read scaling, fail-closed staleness ==")
	fmt.Fprintln(w, "failover\tissued\trevoked\tkilled after\tlost (must be 0)\tfalse denials\treconverge\thash converged")
	fmt.Fprintf(w, "\t%d\t%d\t%d\t%d\t%d\t%.1fms\t%v\n",
		res.Failover.Issued, res.Failover.Revoked, res.Failover.KillAfter,
		res.Failover.LostRevocations, res.Failover.FalseDenials,
		res.Failover.ReconvergeMs, res.Failover.HashConverged)
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nnodes\tper-call µs\tworkers\tops\tops/sec")
	for _, row := range res.Throughput {
		fmt.Fprintf(w, "%d\t%.0f\t%d\t%d\t%.0f\n",
			row.Nodes, row.PerCallUs, row.Workers, row.Ops, row.OpsPerSec)
	}
	fmt.Fprintf(w, "3-node / 1-node aggregate\t%.2fx (floor 2x)\n", res.ScaleX)
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nstaleness\tbound\tserved fresh\tsever -> refused\treads closed\twrites closed")
	fmt.Fprintf(w, "\t%.0fms\t%d\t%.1fms\t%v\t%v\n",
		res.Staleness.StaleAfterMs, res.Staleness.ServedFresh,
		res.Staleness.SeverToStaleMs, res.Staleness.ReadFailClosed,
		res.Staleness.WriteFailClosed)
	if len(res.Violations) > 0 {
		return fmt.Errorf("replication violations: %v", res.Violations)
	}
	if replicationJSONPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(replicationJSONPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(rows written to %s)\n", replicationJSONPath)
	return nil
}

func runBaselines(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E9a: policy size — OASIS parametrised rules vs RBAC0 vs ACLs ==")
	fmt.Fprintln(w, "doctors\tpatients/doctor\tOASIS rules\tRBAC0 roles\tRBAC0 assignments\tACL entries")
	for _, cfg := range []struct{ d, p int }{{10, 10}, {50, 50}, {200, 100}} {
		row := experiments.RunPolicySize(cfg.d, cfg.p)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n",
			row.Doctors, row.PatientsPerDoctor, row.OASISRules,
			row.RBAC0Roles, row.RBAC0Assignments, row.ACLEntries)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== E9b: revocation — active event channels vs polling ==")
	fmt.Fprintln(w, "certs\tpoll interval\tactive latency\tpolling latency\tpoll msgs/hr\tactive events")
	for _, cfg := range []struct {
		certs    int
		interval time.Duration
	}{
		{100, time.Second}, {100, 10 * time.Second}, {100, time.Minute},
	} {
		row, err := experiments.RunRevocationComparison(cfg.certs, cfg.interval, 0.5)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%d\t%d\n",
			row.Certificates, row.PollInterval,
			row.ActiveLatency.Round(time.Microsecond), row.PollingLatency,
			row.PollMessages, row.ActiveEvents)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== E9c: stand-in via appointment vs delegation chains ==")
	fmt.Fprintln(w, "chain length\tappointment revokes\tdelegation cascade ops\tdangling without cascade")
	for _, n := range []int{1, 5, 20} {
		row := experiments.RunDelegationComparison(n)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\n",
			row.ChainLen, row.AppointmentRevokes,
			row.DelegationCascadeOps, row.DanglingWithoutCascade)
	}
	return nil
}

func runSeqcore(w *tabwriter.Writer) error {
	// The published numbers use a long enough window for the group-commit
	// amortisation to reach steady state; quick mode only proves the
	// machinery (and the ordering/loss invariants) end to end.
	cfg := experiments.SeqcoreConfig{
		Procs:  []int{1, 8},
		Window: 1500 * time.Millisecond,
	}
	if quick {
		cfg.Window = 150 * time.Millisecond
	}
	res, err := experiments.RunSeqcore(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== E20: per-shard sequencer core — mixed issue/revoke write path, journaled ==")
	fmt.Fprintln(w, "variant\tprocs\tpairs\tns/op\tops/sec\trevoke p50\trevoke p99")
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.0f\t%.2fms\t%.2fms\n",
			row.Variant, row.Procs, row.Ops, row.NsPerOp, row.OpsPerSec,
			row.RevokeP50Ms, row.RevokeP99Ms)
	}
	fmt.Fprintf(w, "sequencer / per-record at 8 procs\t%.2fx (floor 1.3x)\trevoke p99 %.2fms vs %.2fms per-record\n",
		res.SpeedupAtMax, res.SeqP99Ms, res.PerRecordP99Ms)
	if len(res.Violations) > 0 {
		return fmt.Errorf("seqcore violations: %v", res.Violations)
	}
	if seqcoreJSONPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(seqcoreJSONPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(rows written to %s)\n", seqcoreJSONPath)
	return nil
}
