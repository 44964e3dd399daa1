package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"opmap"
	"opmap/internal/obsv"
	"opmap/internal/server"
	"opmap/internal/wal"
)

// instance is one in-process opmapd: a session behind internal/server
// on a loopback listener, with ingestion wired the way cmd/opmapd wires
// it (validate, WAL append with fsync, then Session.AppendSeq) minus the
// apply queue, so an ingest is acknowledged after it is applied.
type instance struct {
	sess   *opmap.Session
	log    *wal.Log // nil unless the workload ingests
	base   string   // http://127.0.0.1:port
	hs     *http.Server
	served chan error
	setup  time.Duration
}

// startInstance loads the CSV, discretizes it, builds the workload's
// engine and starts serving. The returned set-up time runs from the
// first byte read to the listener accepting. With walDir empty the
// ingest endpoint stays disabled.
func startInstance(ctx context.Context, wl *benchWorkload, csvPath, walDir string, tr *tracer) (*instance, error) {
	start := time.Now()
	setupSpan := tr.begin("setup", "setup", 0)
	sp := tr.begin("dataset.load", "setup", setupSpan)
	sess, err := opmap.LoadCSVFile(csvPath, opmap.LoadOptions{Class: classAttr})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", csvPath, err)
	}
	sp = tr.begin("discretize", "setup", setupSpan)
	err = sess.Discretize(opmap.DiscretizeOptions{})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("discretizing: %w", err)
	}
	sp = tr.begin("engine.build", "setup", setupSpan)
	err = sess.BuildCubesOptions(ctx, opmap.BuildOptions{Lazy: wl.lazy, CubeCacheBytes: wl.cubeCacheBytes})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("building cubes: %w", err)
	}
	in := &instance{sess: sess}
	cfg := server.Config{Session: sess, Logger: obsv.Nop()}
	if walDir != "" {
		in.log, err = wal.Open(filepath.Join(walDir, server.DefaultDatasetName), wal.Options{})
		if err != nil {
			return nil, fmt.Errorf("opening WAL: %w", err)
		}
		cfg.Ingest = in.ingest(tr)
	}
	srv, err := server.New(cfg)
	if err != nil {
		in.closeLog()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.closeLog()
		return nil, err
	}
	in.base = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: tr.wrapHandler(srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
	in.served = make(chan error, 1)
	go func() { in.served <- in.hs.Serve(ln) }()
	in.setup = time.Since(start)
	tr.end(setupSpan)
	return in, nil
}

// ingest is the server's Ingest callback: the batch is validated,
// appended to the WAL (fsynced before Append returns) and applied to
// the session under the WAL's sequence number.
func (in *instance) ingest(tr *tracer) func(ctx context.Context, dataset string, rows [][]string) (uint64, error) {
	return func(ctx context.Context, _ string, rows [][]string) (uint64, error) {
		if err := in.sess.ValidateBatch(rows); err != nil {
			return 0, err
		}
		req := obsv.RequestID(ctx)
		sp := tr.begin("wal.append", req, 0)
		seq, err := in.log.Append(wal.EncodeRows(rows))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("session.append", req, 0)
		err = in.sess.AppendSeq(context.Background(), rows, seq)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		return seq, nil
	}
}

// stop shuts the server down, waits for its serve loop to return and
// closes the WAL.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := in.closeLog(); err == nil {
		err = cerr
	}
	return err
}

func (in *instance) closeLog() error {
	if in.log == nil {
		return nil
	}
	err := in.log.Close()
	in.log = nil
	return err
}
