package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/httpx"
	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/store"
)

// The two services under test: login issues the session role from a
// stored fact, files issues a dependent role kept alive by membership of
// the login role (Fig. 5: revoking login collapses files).
const (
	loginPolicy = `login.user(P) <- env account(P).`
	filesPolicy = `files.reader(P) <- login.user(P) keep [1].`
)

// The defaults cmd/oasisd and cmd/oasisgw run with.
const (
	callTimeout    = 10 * time.Second // oasisd peer calls, oasisgw -request-timeout
	edgePool       = 4                // oasisgw -pool
	maxInflight    = 256              // oasisgw -max-inflight
	maxConns       = 1024             // oasisgw -max-conns
	feedQueueCap   = 256              // oasisd feed subscriber queue
	defaultEdgeMax = 65536            // oasisgw -cache-max
)

// stackConfig sizes one deployment.
type stackConfig struct {
	dir        string   // journal directory (created)
	principals []string // account facts loaded before the services start
	cacheMax   int      // edge verdict cache bound
	tr         *tracer  // nil: no wrappers anywhere
	// wrapEdge, when set, wraps the gateway's HTTP handler (a planted
	// fault in the benchmark's own tests).
	wrapEdge func(http.Handler) http.Handler
}

// stack is the standalone edge deployment in one process: an issuer
// daemon (journal, broker, login + files, OW2 server with the revocation
// feed) and an edge gateway (pooled directory, resilient caller,
// coalescing validator, event-fed verdict cache, HTTP server), wired over
// loopback TCP exactly as oasisd -state-dir and oasisgw -cache run.
type stack struct {
	issuerReg *obs.Registry
	dlog      *durable.Log
	broker    *event.Broker
	login     *core.Service
	files     *core.Service
	feed      *event.Feed
	edgeCall  *rpc.ResilientCaller
	validator *core.RemoteValidator
	cache     *core.EdgeCache
	baseURL   string

	closers []func() // teardown, run in reverse
}

// splitCaller routes callback validations for services hosted in this
// daemon through the in-process loopback and everything else through the
// TCP directory, as oasisd does.
type splitCaller struct {
	local  *rpc.Loopback
	remote *rpc.Directory
	hosted map[string]bool // fixed before the first call
}

func (c splitCaller) Call(service, method string, body []byte) ([]byte, error) {
	if c.hosted[service] {
		return c.local.Call(service, method, body)
	}
	return c.remote.Call(service, method, body)
}

// startStack assembles the deployment and returns once the edge's
// revocation feed reports live.
func startStack(cfg stackConfig) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	tr := cfg.tr

	// Issuer side, in cmd/oasisd's order.
	reg := obs.NewRegistry()
	st.issuerReg = reg
	tracer := obs.NewTracer(4096)
	obs.RegisterRuntimeMetrics(reg)
	st.broker = event.NewBroker()
	st.onClose(st.broker.Close)

	local := rpc.NewLoopback()
	peers := rpc.NewDirectoryPool(callTimeout, edgePool)
	peers.Instrument(reg)
	st.onClose(peers.Close)
	var split rpc.Caller = splitCaller{local: local, remote: peers,
		hosted: map[string]bool{"login": true, "files": true}}
	if tr != nil {
		split = tr.callbackCaller(split)
	}
	caller := rpc.NewResilientCaller(split,
		rpc.ResilientConfig{CallTimeout: callTimeout, Obs: reg, Trace: tracer})

	st.dlog, err = durable.Open(durable.Options{Dir: cfg.dir, Obs: reg})
	if err != nil {
		return st, fmt.Errorf("open journal: %w", err)
	}
	st.onClose(func() {
		if err := st.dlog.Compact(); err != nil {
			logf("compact journal: %v", err)
		}
		if err := st.dlog.Close(); err != nil {
			logf("close journal: %v", err)
		}
	})
	var journal core.Journal = st.dlog
	if tr != nil {
		journal = tr.journal(st.dlog)
	}

	db := store.New()
	db.Observe(st.dlog.FactChanged)
	for _, p := range cfg.principals {
		if _, err := db.Assert("account", names.Atom(p)); err != nil {
			return st, fmt.Errorf("assert account %s: %w", p, err)
		}
	}

	server := rpc.NewTCPServer()
	server.Instrument(reg)
	for _, s := range []struct {
		name, text string
		dst        **core.Service
	}{{"login", loginPolicy, &st.login}, {"files", filesPolicy, &st.files}} {
		pol, err := policy.Parse(s.text)
		if err != nil {
			return st, fmt.Errorf("policy %s: %w", s.name, err)
		}
		svc, err := core.NewService(core.Config{
			Name:             s.name,
			Policy:           pol,
			Broker:           st.broker,
			Caller:           caller,
			CacheValidations: true,
			Journal:          journal,
			Obs:              reg,
			Trace:            tracer,
		})
		if err != nil {
			return st, err
		}
		st.onClose(svc.Close)
		*s.dst = svc
		if err := svc.InstallKeys(); err != nil {
			return st, fmt.Errorf("journal keys for %s: %w", s.name, err)
		}
		svc.Env().RegisterStore("account", db, "account")
		svc.WatchStore(db, map[string]string{"account": "account"})
		h := rpc.Handler(svc.Handler())
		local.Register(s.name, h)
		if tr != nil {
			h = tr.serverHandler(s.name, h)
		}
		server.Register(s.name, h)
	}

	st.feed = event.NewFeed(st.broker, feedQueueCap)
	st.feed.Instrument(reg)
	st.onClose(st.feed.Close)
	server.RegisterStream(event.FeedService, event.FeedMethod,
		func(method string, body []byte, send func([]byte) error) (func(), error) {
			if tr != nil {
				send = tr.feedSend(send)
			}
			return st.feed.Subscribe(send)
		})
	if tr != nil {
		st.onClose(st.broker.Tap(tr.tap))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("listen rpc: %w", err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		server.Serve(ln) //nolint:errcheck // ends at server.Close
	}()
	st.onClose(func() { server.Close(); <-serveDone })
	issuerAddr := ln.Addr().String()

	// Edge side, in cmd/oasisgw's order with -cache.
	ereg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(ereg)
	dir := rpc.NewDirectoryPool(callTimeout, edgePool)
	st.onClose(dir.Close)
	dir.Instrument(ereg)
	dir.Add("login", issuerAddr)
	dir.Add("files", issuerAddr)
	var wire rpc.Caller = dir
	if tr != nil {
		wire = tr.edgeCaller(dir)
	}
	st.edgeCall = rpc.NewResilientCaller(wire, rpc.ResilientConfig{CallTimeout: callTimeout, Obs: ereg})
	st.validator = core.NewRemoteValidator("oasisgw", st.edgeCall, 0, ereg)
	st.cache = core.NewEdgeCache(st.validator, cfg.cacheMax)
	edgeFeed := gateway.NewEdgeFeed(st.cache, []string{issuerAddr}, callTimeout, ereg)
	edgeFeed.Run()
	st.onClose(edgeFeed.Close)
	gw, err := gateway.New(gateway.Config{
		Caller:      st.edgeCall,
		Validator:   st.validator,
		Cache:       st.cache,
		Services:    []string{"login", "files"},
		Breaker:     st.edgeCall,
		MaxInflight: maxInflight,
		Obs:         ereg,
	})
	if err != nil {
		return st, err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("listen http: %w", err)
	}
	var h http.Handler = gw.Handler()
	if cfg.wrapEdge != nil {
		h = cfg.wrapEdge(h)
	}
	if tr != nil {
		h = tr.gatewayHandler(h)
	}
	srv := httpx.NewServer(h)
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		srv.Serve(httpx.LimitListener(hln, maxConns)) //nolint:errcheck // ends at Shutdown
	}()
	st.onClose(func() {
		if err := httpx.Shutdown(srv, 5*time.Second); err != nil {
			logf("http drain: %v", err)
		}
		<-httpDone
	})
	st.baseURL = "http://" + hln.Addr().String()

	deadline := time.Now().Add(callTimeout)
	for !st.cache.Stats().Live {
		if time.Now().After(deadline) {
			return st, errors.New("edge revocation feed did not come up")
		}
		time.Sleep(time.Millisecond)
	}
	return st, nil
}

func (st *stack) onClose(f func()) { st.closers = append(st.closers, f) }

// close tears the deployment down in reverse assembly order and waits
// for every goroutine it started.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}
