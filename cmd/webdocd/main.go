// Command webdocd runs one Web document database station as a network
// daemon: the deployed form of a station in the paper's three-tier
// architecture. It hosts the embedded relational engine, the BLOB store
// and the document layer, and serves the station RPC protocol (Ping,
// Bundle, Import, SQL) over TCP.
//
// Every daemon is a station of a live distribution fabric (the m-ary
// tree of the paper's section 4). Without -join it is the fabric root:
// the instructor station at position 1 and the join authority. With
// -join it contacts that root, is assigned the next linear position,
// and serves broadcast/resolve/migrate traffic along the tree:
//
//	webdocd -addr 127.0.0.1:7070 -m 2 -seed-course 40
//	webdocd -addr 127.0.0.1:7071 -join 127.0.0.1:7070
//	webdocd -addr 127.0.0.1:7072 -join 127.0.0.1:7070
//	webdocd -data station1.d    # durable: checkpoints + WAL tail
//
// Durability is generation-numbered: the -data directory holds the
// latest checkpoint (relational snapshot plus BLOB sidecar, each
// written temp-then-rename) and the write-ahead-log tail appended
// since. A background checkpointer compacts the log when the tail
// crosses -checkpoint-bytes or every -checkpoint-every, SIGTERM takes
// a final checkpoint, and a restart loads the checkpoint and replays
// only the tail — so restart cost is bounded by the checkpoint
// interval, and a SIGKILL at any instant loses nothing that was
// checkpointed. Every file in the directory has one format; a
// directory written before the binary formats fails recovery with an
// error naming the file (README: "Upgrading a pre-binary directory").
//
// With -seed-course N the daemon authors a synthetic N-page course on
// startup so a fresh deployment has something to serve.
//
// The root heartbeats every joined station (-heartbeat tunes the
// probe interval; 0 disables) and routes broadcasts and resolves
// around stations it declares dead. A station that was killed and
// restarted rejoins with
//
//	webdocd -addr 127.0.0.1:7072 -join 127.0.0.1:7070 -rejoin -pos 3
//
// asking for its old position back (-pos, which means nothing without
// -rejoin; same-address restarts get it back automatically) and then
// catching up on the broadcasts it missed — reference scaffolds first,
// full bundles via the parent route under the watermark policy.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/docdb"
	"repro/internal/fabric"
	"repro/internal/library"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/search"
	"repro/internal/webui"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address")
		httpAddr   = flag.String("http", "", "serve the Web-savvy virtual library UI on this address (empty disables)")
		pos        = flag.Int("pos", 0, "with -rejoin: the position to reclaim")
		dataDir    = flag.String("data", "", "durability directory: checkpoint generations + WAL tail (empty disables persistence)")
		ckptBytes  = flag.Int64("checkpoint-bytes", 64<<20, "checkpoint when the WAL tail exceeds this many bytes (0 disables the size trigger)")
		ckptEvery  = flag.Duration("checkpoint-every", 0, "checkpoint on this interval (0 disables the timer trigger)")
		seedCourse = flag.Int("seed-course", 0, "author a synthetic course with this many pages on startup")
		joinAddr   = flag.String("join", "", "join the distribution fabric via this root address (empty: be the root)")
		rejoin     = flag.Bool("rejoin", false, "with -join: reclaim the previous position (-pos) and catch up on missed broadcasts")
		degree     = flag.Int("m", 2, "distribution tree degree (root only)")
		watermark  = flag.Int("watermark", 1, "watermark frequency: fetches beyond this replicate locally (root only; negative never replicates)")
		heartbeat  = flag.Duration("heartbeat", fabric.DefaultHeartbeatInterval, "root only: probe joined stations this often and declare the unresponsive ones dead (0 disables)")
		debugAddr  = flag.String("debug-addr", "", "serve pprof and expvar diagnostics on this address (bare :port binds loopback; empty disables)")
		logEvents  = flag.Bool("log-events", false, "log structured one-line records for fault-path events (suspicion, grafts, rejoins, checkpoints)")
	)
	flag.Parse()
	if *pos != 0 && !*rejoin {
		log.Fatal("webdocd: -pos requires -rejoin (a joining station is assigned its position)")
	}
	if *rejoin && *joinAddr == "" {
		log.Fatal("webdocd: -rejoin requires -join")
	}
	if *rejoin && *pos < 2 {
		log.Fatal("webdocd: -rejoin requires -pos >= 2 (the position to reclaim)")
	}

	rel := relstore.NewDB()
	blobs := blob.NewStore()
	store, err := docdb.Open(rel, blobs)
	if err != nil {
		log.Fatalf("webdocd: opening store: %v", err)
	}
	// The content index attaches before recovery so a restart rebuilds
	// it from the recovered rows; from here on the write hooks keep it
	// current.
	if _, err := search.Attach(store); err != nil {
		log.Fatalf("webdocd: attaching content index: %v", err)
	}
	dir := *dataDir
	if dir != "" {
		// Recover restores the newest checkpoint generation (relational
		// snapshot + BLOB sidecar), chain-replays the WAL tail, resyncs
		// the ID counter and attaches the tail for appends.
		rec, err := store.Recover(dir)
		if err != nil {
			log.Fatalf("webdocd: recovering %s: %v", dir, err)
		}
		if rec.Gen > 0 || rec.Applied > 0 {
			log.Printf("webdocd: recovered checkpoint generation %d, replayed %d tail transaction(s)", rec.Gen, rec.Applied)
		}
	}

	lib := library.New(store)
	lib.RegisterInstructor("instructor")

	// The shutdown handler is installed before any ready banner prints:
	// whoever waits for the banner may signal the moment it appears, and
	// a SIGTERM that lands under the default disposition kills the
	// process without the shutdown checkpoint — losing every BLOB
	// stored since the last one.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// Start serving. Without -join this station is the fabric root;
	// a joiner's socket must be up before the join handshake (the root
	// pushes bundles back to it).
	var station *fabric.Station
	if *joinAddr == "" {
		// The root is position 1 and needs no peer to seed, so the
		// course exists before the banner appears and the first
		// broadcast can never race the seeding.
		seed(store, lib, 1, *seedCourse)
		station, err = fabric.NewRoot(store, *addr, *degree, *watermark)
		if err != nil {
			log.Fatalf("webdocd: starting fabric root: %v", err)
		}
		if *heartbeat > 0 {
			if err := station.StartHeartbeat(*heartbeat, 0); err != nil {
				log.Fatalf("webdocd: starting heartbeat: %v", err)
			}
		}
		fmt.Printf("webdocd: station %d serving on %s (fabric root, m=%d, watermark=%d)\n",
			station.Pos(), station.Addr(), *degree, *watermark)
	} else {
		if *rejoin {
			station, err = fabric.Rejoin(store, *addr, *joinAddr, *pos)
		} else {
			station, err = fabric.Join(store, *addr, *joinAddr)
		}
		if err != nil {
			log.Fatalf("webdocd: joining fabric: %v", err)
		}
		// A joiner learns its position from the root, so it can only
		// seed after the handshake; the banner waits for the seed.
		seed(store, lib, station.Pos(), *seedCourse)
		if *rejoin {
			// Reconcile with whatever was broadcast while this station
			// was dark, before announcing readiness.
			res, err := station.CatchUp()
			if err != nil {
				log.Printf("webdocd: catch-up incomplete: %v", err)
			} else {
				log.Printf("webdocd: caught up: %d reference(s) imported, %d broadcast(s) re-pulled, %d stale instance(s) reclaimed",
					res.References, len(res.Resolved), res.Migrated)
			}
		}
		fmt.Printf("webdocd: station %d serving on %s (joined fabric via %s)\n",
			station.Pos(), station.Addr(), *joinAddr)
	}
	statsNode := station.Node() // the serving node, for diagnostics

	var evSink obs.EventSink
	if *logEvents {
		evSink = func(line string) { log.Printf("webdocd: %s", line) }
		station.SetEventSink(evSink)
	}
	if *debugAddr != "" {
		startDebugServer(*debugAddr, statsNode)
	}

	if *httpAddr != "" {
		ui := webui.New(lib, store)
		ui.Observer = statsNode.Observer()
		// The federated full-text mode: the query rides to the root and
		// scatter-gathers the tree.
		ui.Federated = func(q search.Query) ([]search.Hit, error) {
			reply, err := station.Search(q)
			if err != nil {
				return nil, err
			}
			return reply.Hits, nil
		}
		go func() {
			log.Printf("webdocd: virtual library UI on http://%s/", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, ui); err != nil {
				log.Fatalf("webdocd: http: %v", err)
			}
		}()
	}

	// Background checkpointer: compact the log whenever the tail grows
	// past -checkpoint-bytes or the -checkpoint-every timer fires, so
	// restart cost stays bounded no matter how long the station runs.
	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	if dir != "" && (*ckptEvery > 0 || *ckptBytes > 0) {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			runCheckpointer(store, rel, *ckptEvery, *ckptBytes, stopCkpt, statsNode.Observer(), evSink)
		}()
	}

	<-sig
	log.Println("webdocd: shutting down")
	// Orderly shutdown: stop serving, then take a final checkpoint —
	// relational snapshot, BLOB sidecar and rotated WAL land as one
	// generation, every file written temp-then-rename, so even a crash
	// during the shutdown itself leaves a loadable store.
	close(stopCkpt)
	ckptWG.Wait()
	if err := station.Close(); err != nil {
		log.Printf("webdocd: closing station: %v", err)
	}
	if dir != "" {
		if info, err := store.CheckpointNow(); err != nil {
			log.Printf("webdocd: shutdown checkpoint: %v", err)
		} else {
			log.Printf("webdocd: shutdown checkpoint generation %d (%d bytes)", info.Gen, info.Bytes)
		}
		if err := rel.CloseWAL(); err != nil {
			log.Printf("webdocd: closing WAL: %v", err)
		}
	}
}

// runCheckpointer polls the WAL tail once a second and checkpoints
// when either trigger fires: the tail crossing the byte budget, or the
// interval elapsing since the last checkpoint. Each installed
// checkpoint lands in the station's event journal (queryable over the
// Events RPC) and, when -log-events set a sink, on the process log.
func runCheckpointer(store *docdb.Store, rel *relstore.DB, every time.Duration, maxBytes int64, stop <-chan struct{}, o *obs.Observer, events obs.EventSink) {
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			due := every > 0 && time.Since(last) >= every
			full := maxBytes > 0 && rel.WALTailBytes() >= maxBytes
			if !due && !full {
				continue
			}
			info, err := store.CheckpointNow()
			last = time.Now()
			if err != nil {
				log.Printf("webdocd: background checkpoint: %v", err)
				continue
			}
			log.Printf("webdocd: checkpoint generation %d (%d bytes, wal seq %d)", info.Gen, info.Bytes, info.Seq)
			e := o.Emit(obs.NewEvent("checkpoint-install", "gen", info.Gen, "bytes", info.Bytes, "wal-seq", info.Seq))
			if events != nil {
				events(e.Line())
			}
		}
	}
}

// startDebugServer exposes the station's diagnostics over HTTP:
// net/http/pprof's profiles, expvar (the process defaults plus the
// unified station Stats snapshot under "station"), on an explicit mux
// so nothing else in the process leaks handlers onto it. A bare
// ":port" binds loopback — the profiler is an operator tool, not a
// public surface; exposing it wider takes an explicit interface
// address.
func startDebugServer(addr string, node *cluster.Node) {
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	expvar.Publish("station", expvar.Func(func() any { return node.StatsNow() }))
	expvar.Publish("station_events", expvar.Func(func() any { return node.Observer().EventCounts() }))
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	go func() {
		log.Printf("webdocd: debug diagnostics on http://%s/debug/pprof/ and /debug/vars", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("webdocd: debug listener: %v", err)
		}
	}()
}

// seed authors the synthetic startup course (pages > 0) unless the WAL
// replay already brought it back.
func seed(store *docdb.Store, lib *library.Library, pos, pages int) {
	if pages <= 0 {
		return
	}
	spec := workload.DefaultSpec(pos)
	spec.Pages = pages
	spec.MediaScaleDown = 4096
	if _, err := store.Script(spec.ScriptName); err == nil {
		// The course came back with the WAL replay; re-seeding
		// would collide with the restored rows.
		log.Printf("webdocd: %s already present, skipping seed", spec.ScriptName)
		if err := lib.Add(spec.ScriptName, fmt.Sprintf("MMU-%03d", pos), "instructor"); err != nil {
			log.Fatalf("webdocd: cataloging course: %v", err)
		}
		return
	}
	course, err := workload.BuildCourse(store, spec)
	if err != nil {
		log.Fatalf("webdocd: seeding course: %v", err)
	}
	if _, err := store.NewInstance(spec.URL, pos, true); err != nil {
		log.Fatalf("webdocd: recording instance: %v", err)
	}
	if err := lib.Add(spec.ScriptName, fmt.Sprintf("MMU-%03d", pos), "instructor"); err != nil {
		log.Fatalf("webdocd: cataloging course: %v", err)
	}
	log.Printf("webdocd: seeded %s (%d pages, %d media, %d bytes)",
		spec.ScriptName, course.PageCount, course.MediaCount, course.MediaBytes)
}
