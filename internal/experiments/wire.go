package experiments

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sign"
)

// ---------------------------------------------------------------------------
// E15 — wire hot path: pipelined binary framing, batched callback
// validation, and zero-copy certificate codecs.
//
// Three sections, all over real TCP on the loopback interface:
//
//   single_call_latency  sequential request/response latency of the legacy
//                        lockstep gob protocol vs the pipelined binary
//                        framing (the framing must not tax a lone caller).
//   fanin_validation     authorization throughput when N workers hammer a
//                        guard whose every invocation needs a callback
//                        validation at one issuer — per-call vs batched.
//   codec_bytes          encode+decode cost of the certificate wire codecs,
//                        JSON vs hand-rolled binary: bytes, allocs, ns.
// ---------------------------------------------------------------------------

// WireLatencyRow is one single-call latency measurement.
type WireLatencyRow struct {
	Mode     string  `json:"mode"` // "gob" or "binary"
	Ops      int     `json:"ops"`
	MedianNs float64 `json:"median_ns"`
	P99Ns    float64 `json:"p99_ns"`
}

// WireFaninRow is one fan-in validation throughput measurement.
type WireFaninRow struct {
	Mode               string  `json:"mode"` // "per_call" or "batched"
	Procs              int     `json:"procs"`
	Workers            int     `json:"workers"`
	Invocations        int64   `json:"invocations"`
	OpsPerSec          float64 `json:"ops_per_sec"`
	BatchesSent        uint64  `json:"batches_sent"`
	BatchedValidations uint64  `json:"batched_validations"`
	BytesSentPerOp     float64 `json:"bytes_sent_per_op"` // client->issuer wire bytes per invocation
}

// WireCodecRow is one codec cost measurement.
type WireCodecRow struct {
	Codec       string  `json:"codec"`   // "json" or "binary"
	Payload     string  `json:"payload"` // "rmc" or "appointment"
	BytesPerOp  int     `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
}

// WireResult bundles the three E15 sections (the BENCH_wire.json shape).
type WireResult struct {
	Latency []WireLatencyRow `json:"latency"`
	Fanin   []WireFaninRow   `json:"fanin"`
	Codec   []WireCodecRow   `json:"codec"`
}

// RunWire runs all three sections: latencyOps sequential calls per
// protocol, then the fan-in workload for one window at each GOMAXPROCS
// value, then the codec micro-measurements.
func RunWire(procs []int, latencyOps int, window time.Duration) (WireResult, error) {
	var res WireResult
	for _, mode := range []string{"gob", "binary"} {
		row, err := runWireLatency(mode, latencyOps)
		if err != nil {
			return WireResult{}, fmt.Errorf("latency %s: %w", mode, err)
		}
		res.Latency = append(res.Latency, row)
	}
	for _, p := range procs {
		for _, mode := range []string{"per_call", "batched"} {
			row, err := runWireFanin(mode, p, window, 0)
			if err != nil {
				return WireResult{}, fmt.Errorf("fanin %s procs=%d: %w", mode, p, err)
			}
			res.Fanin = append(res.Fanin, row)
		}
	}
	codec, err := runWireCodec()
	if err != nil {
		return WireResult{}, fmt.Errorf("codec: %w", err)
	}
	res.Codec = codec
	return res, nil
}

// startWireServer serves the given handlers on a loopback listener and
// returns the address and a shutdown func.
func startWireServer(handlers map[string]rpc.Handler) (string, func(), error) {
	srv := rpc.NewTCPServer()
	for name, h := range handlers {
		srv.Register(name, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(ln) //nolint:errcheck // dies with the test server
	return ln.Addr().String(), srv.Close, nil
}

// runWireLatency measures sequential single-call latency over one
// protocol. The payload is sized like a typical certificate validation
// body so framing overhead is measured against realistic traffic.
func runWireLatency(mode string, ops int) (WireLatencyRow, error) {
	addr, shutdown, err := startWireServer(map[string]rpc.Handler{
		"wire": func(method string, body []byte) ([]byte, error) { return body, nil },
	})
	if err != nil {
		return WireLatencyRow{}, err
	}
	defer shutdown()

	dial := rpc.DialTCP
	if mode == "gob" {
		dial = rpc.DialTCPGob
	}
	cli, err := dial(addr, 5*time.Second)
	if err != nil {
		return WireLatencyRow{}, err
	}
	defer cli.Close() //nolint:errcheck

	payload := bytes.Repeat([]byte{0x42}, 300)
	for i := 0; i < 50; i++ { // warm the connection and the runtime
		if _, err := cli.Call("wire", "echo", payload); err != nil {
			return WireLatencyRow{}, err
		}
	}
	lat := make([]float64, ops)
	for i := range lat {
		start := time.Now()
		if _, err := cli.Call("wire", "echo", payload); err != nil {
			return WireLatencyRow{}, err
		}
		lat[i] = float64(time.Since(start).Nanoseconds())
	}
	slices.Sort(lat)
	return WireLatencyRow{
		Mode:     mode,
		Ops:      ops,
		MedianNs: obs.Quantile(lat, 50),
		P99Ns:    obs.Quantile(lat, 99),
	}, nil
}

// runWireFanin measures authorization throughput with every invocation
// requiring a callback validation at a TCP-remote issuer. "per_call"
// disables coalescing (BatchWindow < 0); "batched" uses batchWindow (0
// selects the default), so concurrent misses ride validate_batch frames.
func runWireFanin(mode string, procs int, window, batchWindow time.Duration) (WireFaninRow, error) {
	broker := event.NewBroker()
	defer broker.Close()
	clk := clock.NewSimulated(time.Date(2001, 11, 12, 9, 0, 0, 0, time.UTC))

	login, err := core.NewService(core.Config{
		Name:   "login",
		Policy: policy.MustParse(`login.user <- env ok.`),
		Broker: broker,
		Clock:  clk,
	})
	if err != nil {
		return WireFaninRow{}, err
	}
	defer login.Close()
	AlwaysTrue(login, "ok")

	addr, shutdown, err := startWireServer(map[string]rpc.Handler{"login": login.Handler()})
	if err != nil {
		return WireFaninRow{}, err
	}
	defer shutdown()

	reg := obs.NewRegistry()
	dir := rpc.NewDirectory(5 * time.Second)
	defer dir.Close()
	dir.Add("login", addr)
	dir.Instrument(reg)

	if mode == "per_call" {
		batchWindow = -1
	}
	guard, err := core.NewService(core.Config{
		Name:        "guard",
		Policy:      policy.MustParse(`auth enter <- login.user.`),
		Broker:      broker,
		Caller:      dir,
		Clock:       clk,
		BatchWindow: batchWindow,
	})
	if err != nil {
		return WireFaninRow{}, err
	}
	defer guard.Close()

	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	workers := 64 * procs

	// One session per worker: a fan-in storm is many distinct sessions
	// (re)validating against one issuer at once, not one session in a
	// loop — and distinct principals also spread the guard's sharded
	// session state the way real traffic does.
	principals := make([]string, workers)
	credentials := make([]core.Presented, workers)
	for w := 0; w < workers; w++ {
		sess := NewSession()
		principals[w] = sess.PrincipalID()
		rmc, err := login.Activate(principals[w], Role("login", "user"), core.Presented{})
		if err != nil {
			return WireFaninRow{}, err
		}
		sess.AddRMC(rmc)
		credentials[w] = sess.Credentials()
	}
	if _, err := guard.Invoke(principals[0], "enter", nil, credentials[0]); err != nil {
		return WireFaninRow{}, err
	}

	var stop atomic.Bool
	var total atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	bytesBefore := reg.Counter(`rpc_bytes_sent_total{side="client"}`).Value()
	start := time.Now()
	timer := time.AfterFunc(window, func() { stop.Store(true) })
	defer timer.Stop()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n int64
			for !stop.Load() {
				if _, err := guard.Invoke(principals[w], "enter", nil, credentials[w]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					break
				}
				n++
			}
			total.Add(n)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok {
		return WireFaninRow{}, err
	}
	ops := total.Load()
	if ops == 0 {
		return WireFaninRow{}, fmt.Errorf("no invocations completed in %v", window)
	}
	stats := guard.Stats()
	bytesSent := reg.Counter(`rpc_bytes_sent_total{side="client"}`).Value() - bytesBefore
	return WireFaninRow{
		Mode:               mode,
		Procs:              procs,
		Workers:            workers,
		Invocations:        ops,
		OpsPerSec:          float64(ops) / elapsed.Seconds(),
		BatchesSent:        stats.BatchesSent,
		BatchedValidations: stats.BatchedValidations,
		BytesSentPerOp:     float64(bytesSent) / float64(ops),
	}, nil
}

// runWireCodec measures encode+decode round trips of the certificate wire
// codecs. Fixtures carry a parametrised role / parameters so the codec
// exercises strings, ints and times, not just the fixed fields.
func runWireCodec() ([]WireCodecRow, error) {
	ring, err := sign.NewKeyRing(2, nil)
	if err != nil {
		return nil, err
	}
	role := names.MustRole(names.MustRoleName("hospital", "doctor", 2),
		names.Atom("cardiology"), names.Int(4))
	rmc, err := cert.IssueRMC(ring, "dr_jones", role, cert.CRR{Issuer: "hospital", Serial: 87})
	if err != nil {
		return nil, err
	}
	appt, err := cert.IssueAppointment(ring, cert.AppointmentCertificate{
		Issuer:      "hospital",
		Serial:      12,
		Kind:        "locum",
		Params:      []names.Term{names.Atom("ward9")},
		Holder:      "dr_smith",
		AppointedBy: "dr_jones",
		IssuedAt:    time.Date(2001, 11, 12, 9, 0, 0, 0, time.UTC),
		ExpiresAt:   time.Date(2001, 11, 13, 9, 0, 0, 0, time.UTC),
	})
	if err != nil {
		return nil, err
	}

	type codecOp struct {
		codec, payload string
		size           func() (int, error)
		op             func() error
	}
	ops := []codecOp{
		{"json", "rmc",
			func() (int, error) { b, err := cert.MarshalRMC(rmc); return len(b), err },
			func() error {
				b, err := cert.MarshalRMC(rmc)
				if err != nil {
					return err
				}
				_, err = cert.UnmarshalRMC(b)
				return err
			}},
		{"binary", "rmc",
			func() (int, error) { return len(cert.EncodeRMCBinary(rmc)), nil },
			func() error {
				_, err := cert.DecodeRMCBinary(cert.EncodeRMCBinary(rmc))
				return err
			}},
		{"json", "appointment",
			func() (int, error) { b, err := cert.MarshalAppointment(appt); return len(b), err },
			func() error {
				b, err := cert.MarshalAppointment(appt)
				if err != nil {
					return err
				}
				_, err = cert.UnmarshalAppointment(b)
				return err
			}},
		{"binary", "appointment",
			func() (int, error) { return len(cert.EncodeAppointmentBinary(appt)), nil },
			func() error {
				_, err := cert.DecodeAppointmentBinary(cert.EncodeAppointmentBinary(appt))
				return err
			}},
	}

	var rows []WireCodecRow
	for _, c := range ops {
		size, err := c.size()
		if err != nil {
			return nil, err
		}
		if err := c.op(); err != nil {
			return nil, err
		}
		allocs := testing.AllocsPerRun(2000, func() {
			if err := c.op(); err != nil {
				panic(err)
			}
		})
		const iters = 20000
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := c.op(); err != nil {
				return nil, err
			}
		}
		rows = append(rows, WireCodecRow{
			Codec:       c.codec,
			Payload:     c.payload,
			BytesPerOp:  size,
			AllocsPerOp: allocs,
			NsPerOp:     float64(time.Since(start).Nanoseconds()) / iters,
		})
	}
	return rows, nil
}
