package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"bond"
	"bond/internal/server"
	"bond/internal/shard"
)

// node is one in-process bondd serving layer behind a loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	dir  string
	done chan struct{} // closed when Serve has returned
}

// deployment is what one workload serves from: one node, or three shard
// nodes behind a coordinator. Clients talk to front.
type deployment struct {
	nodes []*node
	co    *shard.Coordinator
	coHS  *http.Server
	coEnd chan struct{}
	coTr  *http.Transport // the coordinator's shard-call transport
	front string
}

func serve(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

// serverConfig is the node configuration of each workload. Every node
// runs fsync=interval: on the shared 2-CPU host the benchmark was sized
// on, fsync=always let a disk stall take over whole runs (churn-single's
// write p90 went from 22 to 534 ms between two back-to-back runs of one
// seed). Shards and scan-single run with maintenance off, as
// ARCHITECTURE.md requires for shards (ids are positional).
// churn-single keeps bondd's maintenance thresholds and lets the
// benchmark drive RunMaintenance by write count.
func serverConfig(w string, dir string) server.Config {
	cfg := server.Config{Dir: dir, CompactRatio: -1, ReclusterSpread: -1, Fsync: bond.FsyncInterval}
	if w == "churn-single" {
		cfg.CompactRatio, cfg.ReclusterSpread = 0.25, 0.6
	}
	return cfg
}

// start brings up the workload's nodes (and coordinator) on the data
// directories under dir, which may already hold data.
func start(w string, dir string, tr *tracer) (*deployment, error) {
	d := &deployment{}
	shards := 1
	if w == "skip-sharded" {
		shards = 3
	}
	nodeSpan := spanServer
	if shards > 1 {
		nodeSpan = spanShard
	}
	for i := range shards {
		n := &node{dir: filepath.Join(dir, fmt.Sprintf("node%d", i))}
		var err error
		if n.srv, err = server.New(serverConfig(w, n.dir)); err != nil {
			d.stop()
			return nil, err
		}
		if n.hs, n.url, n.done, err = serve(tr.handler(nodeSpan, n.srv.Handler())); err != nil {
			_ = n.srv.Close()
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	if shards == 1 {
		d.front = d.nodes[0].url
		return d, nil
	}
	topo := &shard.Topology{}
	for i, n := range d.nodes {
		topo.Shards = append(topo.Shards, shard.Shard{ID: i, URL: n.url})
	}
	d.coTr = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	// bondd's coordinator defaults: strict, 3 attempts, 20ms backoff, no
	// hedging, breaker 5/2s, 1s probe, 5s budget.
	co, err := shard.NewCoordinator(shard.Config{
		Topology:         topo,
		Envelope:         shard.Envelope{MaxAttempts: 3, BackoffBase: 20 * time.Millisecond},
		BreakerThreshold: 5,
		BreakerCooldown:  2 * time.Second,
		ProbeInterval:    time.Second,
		DefaultTimeout:   5 * time.Second,
		DegradePolicy:    shard.Strict,
		PromoteReplicas:  true,
		HTTPClient:       &http.Client{Transport: transport{t: tr, base: d.coTr}},
	})
	if err != nil {
		d.stop()
		return nil, err
	}
	d.co = co
	if d.coHS, d.front, d.coEnd, err = serve(tr.handler(spanCoord, co.Handler())); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listeners down, then closes every node, which
// checkpoints its collections.
func (d *deployment) stop() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if d.coHS != nil {
		errs = append(errs, d.coHS.Shutdown(ctx))
		<-d.coEnd
	}
	if d.co != nil {
		errs = append(errs, d.co.Close())
		d.coTr.CloseIdleConnections()
	}
	for _, n := range d.nodes {
		errs = append(errs, n.hs.Shutdown(ctx))
		<-n.done
		errs = append(errs, n.srv.Close())
	}
	return errors.Join(errs...)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
