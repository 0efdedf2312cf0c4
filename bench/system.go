package main

import (
	"context"
	_ "embed"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	paradise "paradise"
	"paradise/server"
)

//go:embed climate_policy.xml
var climatePolicyXML []byte

// system is the program under test, assembled the way cmd/paradised -data
// does it: a store recovered from a directory, one server with the three
// tenants over one shared plan cache, listening on loopback. Next to the
// server the harness opens its own session per tenant over the same store,
// cache and journal, because the in-process workloads and the traced pass
// call Session.Query directly and the server keeps its sessions private.
type system struct {
	dir     string
	store   *paradise.Store
	policy  *paradise.Policy
	journal *paradise.Journal // the climate tenant's, shared by server and session
	cache   *paradise.PlanCache
	sess    map[string]*paradise.Session
	base    string // http://127.0.0.1:port

	srv       *server.Server
	httpSrv   *http.Server
	served    chan error
	recoverMs float64 // what NewStoreWith took on the existing directory
}

// startSystem recovers the store in dir and starts serving it.
func startSystem(dir string, segmentRows int) (*system, error) {
	pol, err := paradise.ParsePolicyBytes(climatePolicyXML)
	if err != nil {
		return nil, fmt.Errorf("climate policy: %w", err)
	}
	start := time.Now()
	store, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: dir, SegmentRows: segmentRows})
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	sys := &system{
		dir:       dir,
		store:     store,
		policy:    pol,
		journal:   paradise.NewJournal(),
		sess:      map[string]*paradise.Session{},
		served:    make(chan error, 1),
		recoverMs: ms(time.Since(start)),
	}
	anon := paradise.AnonConfig{Method: paradise.AnonMondrian, K: anonK, QuasiIdentifiers: anonQI}
	sys.srv, err = server.New(server.Config{
		Store: store,
		Tenants: []server.TenantConfig{
			{Name: tenantOpen},
			{Name: tenantClimate, Policy: pol, Journal: sys.journal},
			{Name: tenantKanon, Anon: anon},
		},
	})
	if err != nil {
		return nil, err
	}
	sys.cache = sys.srv.PlanCache()
	for tenant, opts := range map[string][]paradise.Option{
		tenantOpen:    nil,
		tenantClimate: {paradise.WithPolicy(pol), paradise.WithJournal(sys.journal)},
		tenantKanon:   {paradise.WithAnonymization(anon)},
	} {
		sess, err := paradise.Open(store, append(opts, paradise.WithPlanCache(sys.cache))...)
		if err != nil {
			return nil, fmt.Errorf("open session %s: %w", tenant, err)
		}
		sys.sess[tenant] = sess
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sys.base = "http://" + ln.Addr().String()
	sys.httpSrv = &http.Server{Handler: sys.srv}
	go func() { sys.served <- sys.httpSrv.Serve(ln) }()
	return sys, nil
}

// close drains the server and waits for its accept loop to end.
func (s *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if cerr := s.httpSrv.Shutdown(ctx); err == nil {
		err = cerr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}
