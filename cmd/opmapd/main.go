// Command opmapd serves the Opportunity Map analyses over HTTP: JSON
// endpoints for overview, attribute detail, pairwise / one-vs-rest
// comparison, and sweeps, over sessions preloaded at startup (the
// deployed system's online serving step, Section V.C).
//
// Usage:
//
//	opmapd -data calls.csv -class Disposition -addr :8080
//	opmapd -lazy -data east=east.csv -data west=west.csv -addr :8080
//	opmapd -cubes store.bin -addr :8080
//	opmapd -demo -records 20000 -addr 127.0.0.1:0 -ready-file addr.txt
//
// -data is repeatable and takes name=path or a bare path (the name
// then derives from the file name). The first -data is the default
// dataset; other datasets are addressed with the dataset query
// parameter. -lazy skips the offline cube build: cubes materialize on
// first use with singleflight dedup and a byte-budgeted LRU
// (-cube-cache-bytes), so startup is O(1) regardless of attribute
// count.
//
// -wal-dir enables crash-safe streaming ingestion: POST /api/ingest
// appends rows to a per-dataset write-ahead log, fsynced before the
// response — an acknowledged batch survives kill -9 at any point. At
// startup each dataset replays its WAL tail beyond the snapshot's
// recorded sequence in the background (/readyz reports "replaying"
// and answers 503 until recovery finishes). Batches fold into the
// session incrementally through a bounded apply queue; a full queue
// sheds with 503 + Retry-After.
//
// -shard-dir warm-starts from a directory of shard snapshots written
// by a fleet of shard builders (opmap shard-build): the shards merge
// at load — dictionary union, additive cube-count merge, zero cube
// builds — into one serving dataset, and /api/datasets reports
// "merged (N shards)". A failed assembly is counted by reason
// (opmapd_shard_fallbacks_total) and the daemon cold-builds from
// -data when that is also given.
//
// -snapshot-dir makes sessions durable: at startup each dataset
// warm-starts from <dir>/<name>.omapsnap when the snapshot matches
// the source content hash (eager datasets restore with zero cube
// builds; lazy datasets seed their caches), falling back to a cold
// rebuild on a missing, stale or corrupt file — and after a cold
// eager build the snapshot is written back immediately.
// -checkpoint-interval additionally rewrites changed snapshots in the
// background (and once more on drain), always atomically, so a crash
// mid-checkpoint never clobbers the previous good snapshot.
//
// Endpoints:
//
//	GET /healthz                              liveness
//	GET /readyz                               readiness (503 while draining)
//	GET /api/datasets                         served datasets + default
//	GET /api/overview?top=10                  dataset + GI-miner summary
//	GET /api/detail?attr=A&class=C            values + screened pairs
//	GET /api/compare?attr=A&v1=x&v2=y&class=C pairwise comparison
//	GET /api/compare?attr=A&value=x&class=C   one-vs-rest (degradable)
//	GET /api/sweep?attr=A&class=C&max_pairs=N degradable sweep
//	POST /api/drilldown                       multi-condition drill-down (JSON body)
//	POST /api/ingest                          append rows durably (with -wal-dir)
//	GET /metrics[?format=json]                counters + stage histograms
//	GET /debug/pprof/                         profiling (with -pprof)
//
// Every /api endpoint accepts dataset=NAME to pick a served dataset;
// omitting it targets the default, so single-dataset URLs are
// unchanged.
//
// The daemon sheds load with 429 when too many requests are in flight,
// bounds each request with -timeout, recovers handler panics into
// 500s, and drains cleanly on SIGTERM/SIGINT. Every request emits one
// structured log line (see -log-level) and advances the counters and
// latency histograms served at /metrics; -hot-metrics additionally
// arms the per-cube and per-attribute timing histograms.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"opmap"
	"opmap/internal/obsv"
	"opmap/internal/server"
)

// dataFlags collects repeated -data values in order.
type dataFlags []string

func (d *dataFlags) String() string     { return strings.Join(*d, ",") }
func (d *dataFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("opmapd: ")
	var data dataFlags
	flag.Var(&data, "data", "CSV file to analyze as name=path or bare path; repeat to serve several datasets (first is the default)")
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		cubes        = flag.String("cubes", "", "persisted cube store to serve from")
		class        = flag.String("class", "", "class attribute name (default: last column)")
		demo         = flag.Bool("demo", false, "serve the synthetic call-log case study instead of a file")
		records      = flag.Int("records", 20000, "demo records")
		seed         = flag.Int64("seed", 1, "demo generator seed")
		timeout      = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain budget")
		maxInflight  = flag.Int("max-inflight", 16, "max concurrently served API requests (excess gets 429)")
		maxRows      = flag.Int("max-rows", 5_000_000, "max CSV data rows accepted (0 = unlimited)")
		maxCols      = flag.Int("max-cols", 4096, "max CSV columns accepted (0 = unlimited)")
		maxRecBytes  = flag.Int("max-record-bytes", 1<<20, "max bytes in one CSV record (0 = unlimited)")
		readyFile    = flag.String("ready-file", "", "write the bound address to this file once serving (for scripts)")
		probe        = flag.String("probe", "", "client mode: GET this URL, print the body, exit 0 on 2xx")
		probeBody    = flag.String("probe-body", "", "with -probe: POST this JSON body instead of GET")
		logLevel     = flag.String("log-level", "info", "request log level: debug, info, warn or error")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		hotMetrics   = flag.Bool("hot-metrics", false, "arm per-cube and per-attribute hot-path timing histograms")
		lazy         = flag.Bool("lazy", false, "materialize cubes on demand instead of at startup")
		cacheBytes   = flag.Int64("cube-cache-bytes", 0, "cube cache budget in bytes for unpinned cubes: lazy pair cubes and drill-down cubes (0 = 64 MiB default, negative = unlimited)")
		snapDir      = flag.String("snapshot-dir", "", "directory of per-dataset session snapshots: warm-start from them at boot, checkpoint into them while serving")
		shardDir     = flag.String("shard-dir", "", "directory of shard snapshots (opmap shard-build output): merge them at boot into one serving dataset, falling back to -data on failure")
		ckptEvery    = flag.Duration("checkpoint-interval", 0, "rewrite changed snapshots in -snapshot-dir this often (0 disables the background checkpointer)")
		walDir       = flag.String("wal-dir", "", "directory of per-dataset write-ahead logs: enables POST /api/ingest with replay recovery at boot")
	)
	flag.Parse()

	if *probe != "" {
		os.Exit(runProbe(*probe, *probeBody))
	}

	level, err := obsv.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := obsv.NewLogger(os.Stderr, level)
	obsv.ArmHot(*hotMetrics)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	var snaps *snapman
	if *snapDir != "" {
		if *cubes != "" {
			log.Fatal("-snapshot-dir is incompatible with -cubes (a persisted store is already durable)")
		}
		snaps, err = newSnapman(*snapDir, *ckptEvery)
		if err != nil {
			log.Fatal(err)
		}
	} else if *ckptEvery != 0 {
		log.Fatal("-checkpoint-interval requires -snapshot-dir")
	}

	var shards *shardman
	if *shardDir != "" {
		if *cubes != "" || *demo {
			log.Fatal("-shard-dir is incompatible with -cubes and -demo")
		}
		if *snapDir != "" {
			log.Fatal("-shard-dir is incompatible with -snapshot-dir (the shard directory is already the durable source)")
		}
		if *lazy {
			log.Fatal("-shard-dir restores an eager merged store; -lazy is incompatible")
		}
		shards, err = newShardman(*shardDir)
		if err != nil {
			log.Fatal(err)
		}
	}

	var ingest *ingestman
	if *walDir != "" {
		if *cubes != "" {
			log.Fatal("-wal-dir is incompatible with -cubes (a persisted store has no raw rows to append to)")
		}
		ingest, err = newIngestman(*walDir)
		if err != nil {
			log.Fatal(err)
		}
	}

	sessions, defaultName, err := loadSessions(ctx, loadConfig{
		data:        data,
		cubes:       *cubes,
		class:       *class,
		demo:        *demo,
		records:     *records,
		seed:        *seed,
		maxRows:     *maxRows,
		maxCols:     *maxCols,
		maxRecBytes: *maxRecBytes,
		lazy:        *lazy,
		cacheBytes:  *cacheBytes,
		snaps:       snaps,
		shards:      shards,
	})
	if err != nil {
		log.Fatal(err)
	}

	cfg := server.Config{
		Sessions:       sessions,
		DefaultDataset: defaultName,
		RequestTimeout: *timeout,
		MaxInFlight:    *maxInflight,
		DrainTimeout:   *drainTimeout,
		Logger:         logger,
	}
	if snaps != nil {
		cfg.SnapshotStatus = snaps.status
	} else if shards != nil {
		cfg.SnapshotStatus = shards.statusFor
	}
	if ingest != nil {
		for name, sess := range sessions {
			if err := ingest.start(name, sess); err != nil {
				log.Fatal(err)
			}
		}
		cfg.Ingest = ingest.append
		cfg.IngestStatus = ingest.replaying
		if snaps != nil {
			// Checkpoints bound replay work: once a snapshot is on disk the
			// WAL records it covers are reclaimed.
			snaps.ingest = ingest
		}
		log.Printf("ingestion enabled: per-dataset WALs under %s", *walDir)
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *pprofOn {
		srv.EnablePprof()
		log.Print("pprof enabled at /debug/pprof/")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on http://%s", ln.Addr())
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	var ckptDone chan struct{}
	if snaps != nil && *ckptEvery > 0 {
		ckptDone = make(chan struct{})
		go func() {
			defer close(ckptDone)
			snaps.run(ctx)
		}()
		log.Printf("checkpointing changed snapshots to %s every %v", *snapDir, *ckptEvery)
	}
	if err := srv.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	if ckptDone != nil {
		// The checkpointer takes one final snapshot on shutdown; wait so
		// the freshest working set is on disk before the process exits.
		<-ckptDone
	}
	if ingest != nil {
		// After the final checkpoint, so truncation sees the snapshot's
		// sequence; drains the apply queues and closes the WALs.
		ingest.close()
	}
	log.Print("drained cleanly")
}

// loadConfig carries the data-source flags into loadSessions.
type loadConfig struct {
	data        dataFlags
	cubes       string
	class       string
	demo        bool
	records     int
	seed        int64
	maxRows     int
	maxCols     int
	maxRecBytes int
	lazy        bool
	cacheBytes  int64
	// snaps, when non-nil, enables snapshot warm starts and checkpoints
	// for every loaded dataset.
	snaps *snapman
	// shards, when non-nil, serves one dataset assembled from a
	// directory of shard snapshots, with -data as the cold fallback.
	shards *shardman
}

// loadSessions builds the serving registry from exactly one of the
// data-source families and materializes (or lazily arms) each
// session's engine under ctx, so startup aborts promptly on SIGTERM.
// The returned default is the first -data dataset.
func loadSessions(ctx context.Context, cfg loadConfig) (map[string]*opmap.Session, string, error) {
	if cfg.shards != nil {
		// The shard directory is the primary source; -data, when also
		// given, is only the cold fallback after a failed assembly.
		name := server.DefaultDatasetName
		if len(cfg.data) > 0 {
			if n, _ := splitDataSpec(cfg.data[0]); n != "" {
				name = n
			}
		}
		if sess, ok := cfg.shards.load(name); ok {
			return map[string]*opmap.Session{name: sess}, name, nil
		}
		if len(cfg.data) == 0 {
			return nil, "", fmt.Errorf("shard dir %s: no usable shard snapshots and no -data to rebuild from", cfg.shards.dir)
		}
		cfg.shards.trackCold(name)
	}
	sources := 0
	for _, set := range []bool{len(cfg.data) > 0, cfg.cubes != "", cfg.demo} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, "", fmt.Errorf("specify exactly one of -data, -cubes, -demo")
	}
	switch {
	case cfg.cubes != "":
		// Persisted stores carry their cubes eagerly; -lazy has nothing
		// to defer there.
		if cfg.lazy {
			return nil, "", fmt.Errorf("-lazy is incompatible with -cubes (a persisted store is already materialized)")
		}
		sess, err := opmap.OpenCubesFile(cfg.cubes)
		if err != nil {
			return nil, "", err
		}
		return map[string]*opmap.Session{server.DefaultDatasetName: sess}, server.DefaultDatasetName, nil
	case cfg.demo:
		// The demo dataset is fully determined by its generator
		// parameters, so the staleness hash covers those instead of a
		// source file.
		hash := opmap.HashSourceString(fmt.Sprintf("demo seed=%d records=%d", cfg.seed, cfg.records))
		sess, err := openDataset(ctx, cfg, server.DefaultDatasetName, hash, func() (*opmap.Session, error) {
			sess, _, err := opmap.CaseStudy(cfg.seed, cfg.records)
			return sess, err
		})
		if err != nil {
			return nil, "", err
		}
		return map[string]*opmap.Session{server.DefaultDatasetName: sess}, server.DefaultDatasetName, nil
	default:
		sessions := make(map[string]*opmap.Session, len(cfg.data))
		defaultName := ""
		for _, spec := range cfg.data {
			name, path := splitDataSpec(spec)
			if name == "" {
				return nil, "", fmt.Errorf("-data %q: cannot derive a dataset name; use name=path", spec)
			}
			if _, dup := sessions[name]; dup {
				return nil, "", fmt.Errorf("-data %q: dataset name %q already used", spec, name)
			}
			hash := ""
			if cfg.snaps != nil {
				if !validName(name) {
					return nil, "", fmt.Errorf("-data %q: dataset name %q cannot name a snapshot file; use name=path", spec, name)
				}
				h, err := opmap.HashSourceFile(path)
				if err != nil {
					return nil, "", fmt.Errorf("dataset %q: hashing source: %w", name, err)
				}
				hash = h
			}
			sess, err := openDataset(ctx, cfg, name, hash, func() (*opmap.Session, error) {
				sess, err := opmap.LoadCSVFile(path, opmap.LoadOptions{
					Class:          cfg.class,
					MaxRows:        cfg.maxRows,
					MaxColumns:     cfg.maxCols,
					MaxRecordBytes: cfg.maxRecBytes,
				})
				if err != nil {
					return nil, fmt.Errorf("dataset %q: %w", name, err)
				}
				if err := sess.Discretize(opmap.DiscretizeOptions{}); err != nil {
					return nil, fmt.Errorf("dataset %q: %w", name, err)
				}
				return sess, nil
			})
			if err != nil {
				return nil, "", err
			}
			sessions[name] = sess
			if defaultName == "" {
				defaultName = name
			}
		}
		return sessions, defaultName, nil
	}
}

// openDataset produces one served session: warm from the dataset's
// snapshot when possible, otherwise cold — load from source, build
// the engine, and (eager mode) checkpoint the result immediately so
// the build cost is paid at most once per source version. Lazy
// sessions always build (startup is O(1)) and are seeded from the
// snapshot afterwards.
func openDataset(ctx context.Context, cfg loadConfig, name, hash string, cold func() (*opmap.Session, error)) (*opmap.Session, error) {
	if cfg.snaps != nil && !cfg.lazy {
		if sess, ok := cfg.snaps.loadEager(name, hash); ok {
			return sess, nil
		}
	}
	sess, err := cold()
	if err != nil {
		return nil, err
	}
	if err := buildCubes(ctx, name, sess, cfg); err != nil {
		return nil, err
	}
	if cfg.snaps != nil {
		if cfg.lazy {
			cfg.snaps.seedLazy(name, hash, sess)
		} else {
			cfg.snaps.trackCold(name, hash, sess)
		}
	}
	return sess, nil
}

// splitDataSpec parses one -data value: name=path, or a bare path
// whose name derives from the file name without its extension.
func splitDataSpec(spec string) (name, path string) {
	if i := strings.IndexByte(spec, '='); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	base := filepath.Base(spec)
	return strings.TrimSuffix(base, filepath.Ext(base)), spec
}

func buildCubes(ctx context.Context, name string, sess *opmap.Session, cfg loadConfig) error {
	start := time.Now()
	opts := opmap.BuildOptions{Lazy: cfg.lazy, CubeCacheBytes: cfg.cacheBytes}
	if err := sess.BuildCubesOptions(ctx, opts); err != nil {
		return fmt.Errorf("dataset %q: building cubes: %w", name, err)
	}
	if cfg.lazy {
		log.Printf("dataset %q: lazy engine ready in %v (cubes materialize on demand)", name, time.Since(start).Round(time.Millisecond))
		return nil
	}
	log.Printf("dataset %q: built %d cubes in %v", name, sess.CubeCount(), time.Since(start).Round(time.Millisecond))
	return nil
}

// runProbe is a minimal HTTP client so scripts (ci.sh's smoke step)
// need no external tools: GET the URL (or POST body as JSON when body
// is non-empty), echo the response, exit 0 iff 2xx.
func runProbe(url, body string) int {
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		url = "http://" + url
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var resp *http.Response
	var err error
	if body != "" {
		resp, err = client.Post(url, "application/json", strings.NewReader(body))
	} else {
		resp, err = client.Get(url)
	}
	if err != nil {
		log.Printf("probe: %v", err)
		return 1
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		log.Printf("probe: reading body: %v", err)
		return 1
	}
	os.Stdout.Write(out)
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		log.Printf("probe: %s returned %s", url, resp.Status)
		return 1
	}
	return 0
}
