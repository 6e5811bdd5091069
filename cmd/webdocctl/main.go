// Command webdocctl is the administrative client for webdocd stations:
// the class administrator front end of the paper's three-tier
// architecture, speaking the station RPC protocol.
//
// Usage:
//
//	webdocctl -addr 127.0.0.1:7070 ping
//	webdocctl -addr 127.0.0.1:7070 stats
//	webdocctl -addr 127.0.0.1:7070 sql "SELECT * FROM scripts"
//	webdocctl -addr 127.0.0.1:7070 tables
//	webdocctl -addr 127.0.0.1:7070 checkpoint
//	webdocctl -addr 127.0.0.1:7070 pull http://mmu/course-001/v1 127.0.0.1:7071
//	webdocctl -addr 127.0.0.1:7070 topology
//	webdocctl -addr 127.0.0.1:7070 broadcast http://mmu/course-001/v1
//	webdocctl -addr 127.0.0.1:7072 resolve http://mmu/course-001/v1
//	webdocctl -addr 127.0.0.1:7070 migrate http://mmu/course-001/v1
//	webdocctl -addr 127.0.0.1:7070 health
//	webdocctl -addr 127.0.0.1:7070 evict 3
//	webdocctl -addr 127.0.0.1:7072 -k 5 search watermark frequency
//	webdocctl -addr 127.0.0.1:7070 trace 4a1f93c2d07b6e55
//	webdocctl -addr 127.0.0.1:7070 events
//	webdocctl -addr 127.0.0.1:7070 -severity error -follow events
//	webdocctl -addr 127.0.0.1:7070 top
//
// Every verb takes the station through the global -addr flag and
// supports -json, which prints the station's raw typed reply as
// indented JSON — the machine-readable surface scripts and the load
// harness build on. Field names match the RPC reply structs.
//
// "pull URL TARGET" copies a document bundle from the -addr station to
// the TARGET station (pre-broadcast of a single document by hand). The
// topology/broadcast/resolve/migrate verbs drive a live distribution
// fabric: broadcast and migrate address the root station, resolve makes
// the addressed station pull the document up its parent route.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/minisql"
	"repro/internal/mtree"
	"repro/internal/obs"
)

// jsonOut switches every verb from human rendering to indented JSON.
var jsonOut bool

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "station address")
	refsOnly := flag.Bool("refs", false, "broadcast: push document references instead of full instances")
	topK := flag.Int("k", 10, "search: maximum hits to return")
	phrase := flag.Bool("phrase", false, "search: require the terms as a consecutive phrase")
	var ef eventFlags
	flag.Uint64Var(&ef.sinceSeq, "since-seq", 0, "events: only events with a per-station sequence past this cursor")
	flag.StringVar(&ef.category, "category", "", "events: only this category (health, repair, membership, checkpoint)")
	flag.StringVar(&ef.severity, "severity", "", "events: minimum severity (info, warn, error)")
	flag.StringVar(&ef.trace, "trace", "", "events: only events correlated to this hex trace ID")
	flag.BoolVar(&ef.follow, "follow", false, "events: poll the fabric and stream new events as they happen")
	flag.BoolVar(&jsonOut, "json", false, "print the raw typed reply as indented JSON")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	// The fabric verbs use the typed administrative client; everything
	// else speaks the base station protocol.
	switch args[0] {
	case "topology", "broadcast", "resolve", "migrate", "health", "evict", "search", "trace", "events":
		runFabric(*addr, args, *refsOnly, *topK, *phrase, ef)
		return
	}

	rs, err := cluster.DialStation(*addr)
	if err != nil {
		fail("dial %s: %v", *addr, err)
	}
	defer rs.Close()

	switch args[0] {
	case "ping":
		info, err := rs.Ping()
		if err != nil {
			fail("ping: %v", err)
		}
		if emit(info) {
			return
		}
		fmt.Printf("station %d: %d tables, %d document objects\n", info.Pos, len(info.Tables), info.Objects)
	case "stats":
		reply, err := rs.Stats()
		if err != nil {
			fail("stats: %v", err)
		}
		if emit(reply) {
			return
		}
		printStats(reply)
	case "tables":
		info, err := rs.Ping()
		if err != nil {
			fail("ping: %v", err)
		}
		if emit(info.Tables) {
			return
		}
		for _, t := range info.Tables {
			fmt.Println(t)
		}
	case "sql":
		if len(args) < 2 {
			usage()
		}
		reply, err := rs.SQL(strings.Join(args[1:], " "))
		if err != nil {
			fail("sql: %v", err)
		}
		if emit(reply) {
			return
		}
		fmt.Print(minisql.FormatCells(reply.Msg, reply.Affected, reply.Columns, reply.Rows))
	case "top":
		reply, err := rs.Stats()
		if err != nil {
			fail("stats: %v", err)
		}
		if emit(reply.Latency) {
			return
		}
		printTop(reply)
	case "checkpoint":
		reply, err := rs.Checkpoint()
		if err != nil {
			fail("checkpoint: %v", err)
		}
		if emit(reply) {
			return
		}
		fmt.Printf("checkpoint generation %d: %d snapshot bytes, wal seq %d\n", reply.Gen, reply.Bytes, reply.Seq)
	case "pull":
		if len(args) != 3 {
			usage()
		}
		url, target := args[1], args[2]
		bundle, err := rs.FetchBundle(url)
		if err != nil {
			fail("fetch bundle: %v", err)
		}
		dst, err := cluster.DialStation(target)
		if err != nil {
			fail("dial target %s: %v", target, err)
		}
		defer dst.Close()
		reply, err := dst.Import(bundle, false)
		if err != nil {
			fail("import: %v", err)
		}
		if emit(struct {
			URL      string
			Target   string
			ObjectID string
			Form     string
			Bytes    int64
		}{url, target, reply.ObjectID, reply.Form, bundle.TotalBytes()}) {
			return
		}
		fmt.Printf("pulled %s to %s: object %s (%s), %d bytes\n",
			url, target, reply.ObjectID, reply.Form, bundle.TotalBytes())
	default:
		usage()
	}
}

// eventFlags carries the `events` verb's filter and polling options.
type eventFlags struct {
	sinceSeq uint64
	category string
	severity string
	trace    string
	follow   bool
}

// filter translates the flags into the RPC's typed filter.
func (ef eventFlags) filter() obs.EventFilter {
	f := obs.EventFilter{
		SinceSeq:    ef.sinceSeq,
		Category:    ef.category,
		MinSeverity: obs.ParseSeverity(ef.severity),
	}
	if ef.trace != "" {
		id, err := strconv.ParseUint(ef.trace, 16, 64)
		if err != nil || id == 0 {
			fail("events: bad trace ID %q (want the hex ID an op reply printed)", ef.trace)
		}
		f.TraceID = id
	}
	return f
}

// runFabric executes one distribution-fabric verb against a station.
func runFabric(addr string, args []string, refsOnly bool, topK int, phrase bool, ef eventFlags) {
	admin := fabric.DialAdmin(addr)
	defer admin.Close()
	switch args[0] {
	case "search":
		if len(args) < 2 {
			usage()
		}
		res, err := admin.Search(args[1:], phrase, topK)
		if err != nil {
			fail("search: %v", err)
		}
		if emit(res) {
			return
		}
		dead := 0
		for _, sr := range res.Stations {
			if sr.Err != "" {
				dead++
			}
		}
		fmt.Printf("%d hit(s) from %d station(s), %d unreachable (trace %s)\n",
			len(res.Hits), len(res.Stations)-dead, dead, obs.FormatTraceID(res.TraceID))
		for _, h := range res.Hits {
			switch h.Kind {
			case "script":
				fmt.Printf("  %-8d catalog  %s @station %d\n", h.Score, h.Path, h.Station)
			default:
				fmt.Printf("  %-8d %-8s %s %s @station %d\n", h.Score, h.Kind, h.URL, h.Path, h.Station)
			}
			if h.Snippet != "" {
				fmt.Printf("           ... %s ...\n", h.Snippet)
			}
		}
		for _, sr := range res.Stations {
			if sr.Err != "" {
				fmt.Printf("  station %-3d UNREACHABLE %s\n", sr.Pos, sr.Err)
			}
		}
	case "topology":
		top, err := admin.Topology()
		if err != nil {
			fail("topology: %v", err)
		}
		if emit(top) {
			return
		}
		role := "station"
		if top.IsRoot {
			role = "root"
		}
		fmt.Printf("%s %d of %d, m=%d, watermark=%d\n", role, top.Pos, top.N, top.M, top.Watermark)
		positions := make([]int, 0, len(top.Roster))
		for pos := range top.Roster {
			positions = append(positions, pos)
		}
		sort.Ints(positions)
		for _, pos := range positions {
			parent := "-"
			if p, err := mtree.Parent(pos, top.M); err == nil {
				parent = fmt.Sprint(p)
			}
			fmt.Printf("  station %-3d %-21s parent %s\n", pos, top.Roster[pos], parent)
		}
	case "broadcast":
		if len(args) < 2 {
			usage()
		}
		// Several URLs ride one batched traversal: one coalesced frame
		// per tree edge instead of one broadcast per document.
		var res fabric.BroadcastResult
		var err error
		if len(args) == 2 {
			res, err = admin.Broadcast(args[1], refsOnly)
		} else {
			res, err = admin.BroadcastAll(args[1:], refsOnly)
		}
		if err != nil {
			fail("broadcast: %v", err)
		}
		if emit(res) {
			return
		}
		what := "instances"
		if res.RefOnly {
			what = "references"
		}
		name := res.URL
		if len(res.URLs) > 1 {
			name = fmt.Sprintf("%d documents", len(res.URLs))
		}
		fmt.Printf("broadcast %s: %d bytes/copy as %s (trace %s)\n",
			name, res.Bytes, what, obs.FormatTraceID(res.TraceID))
		for _, sr := range res.Stations {
			doc := ""
			if len(res.URLs) > 1 {
				doc = " " + sr.URL
			}
			if sr.Err != "" {
				fmt.Printf("  station %-3d ERROR%s %s\n", sr.Pos, doc, sr.Err)
				continue
			}
			fmt.Printf("  station %-3d %s%s\n", sr.Pos, sr.Form, doc)
		}
	case "resolve":
		if len(args) != 2 {
			usage()
		}
		res, err := admin.Fetch(args[1])
		if err != nil {
			fail("resolve: %v", err)
		}
		if emit(res) {
			return
		}
		switch {
		case res.Local:
			fmt.Printf("resolved %s locally\n", res.URL)
		case res.Replicated:
			fmt.Printf("resolved %s via station %d: %d bytes, fetch %d crossed the watermark, instance materialized\n",
				res.URL, res.ServedBy, res.Bytes, res.Fetches)
		default:
			fmt.Printf("resolved %s via station %d: %d bytes, fetch %d below the watermark\n",
				res.URL, res.ServedBy, res.Bytes, res.Fetches)
		}
		fmt.Printf("  trace %s\n", obs.FormatTraceID(res.TraceID))
	case "migrate":
		if len(args) != 2 {
			usage()
		}
		res, err := admin.EndLecture(args[1])
		if err != nil {
			fail("migrate: %v", err)
		}
		if emit(res) {
			return
		}
		fmt.Printf("migrated %d station(s), reclaimed %d bytes (trace %s)\n",
			len(res.Stations), res.Freed, obs.FormatTraceID(res.TraceID))
		for _, sr := range res.Stations {
			if sr.Err != "" {
				fmt.Printf("  station %-3d ERROR %s\n", sr.Pos, sr.Err)
				continue
			}
			fmt.Printf("  station %-3d -> %s (%d bytes freed)\n", sr.Pos, sr.Form, sr.Freed)
		}
	case "trace":
		if len(args) != 2 {
			usage()
		}
		id, err := strconv.ParseUint(args[1], 16, 64)
		if err != nil || id == 0 {
			fail("trace: bad trace ID %q (want the hex ID an op reply printed)", args[1])
		}
		res, err := admin.Trace(id)
		if err != nil {
			fail("trace: %v", err)
		}
		// Best-effort: the journal events correlated to this trace
		// (grafts mid-broadcast, mostly) interleave into the hop tree.
		var events []obs.Event
		if evs, err := admin.Events(obs.EventFilter{TraceID: id}); err == nil {
			events = evs.Events
		}
		if jsonOut {
			emit(struct {
				Trace  fabric.TraceReply
				Events []obs.Event
			}{res, events})
			return
		}
		printTrace(res, events)
	case "events":
		runEvents(admin, ef)
	case "health":
		health, err := admin.Health()
		if err != nil {
			fail("health: %v", err)
		}
		if emit(health) {
			return
		}
		printHealth(health)
	case "evict":
		if len(args) != 2 {
			usage()
		}
		pos, err := strconv.Atoi(args[1])
		if err != nil {
			fail("evict: bad position %q", args[1])
		}
		health, err := admin.Evict(pos)
		if err != nil {
			fail("evict: %v", err)
		}
		if emit(health) {
			return
		}
		fmt.Printf("station %d evicted\n", pos)
		printHealth(health)
	}
}

// emit prints v as indented JSON when -json is set, reporting whether
// it handled the output.
func emit(v any) bool {
	if !jsonOut {
		return false
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail("encoding json: %v", err)
	}
	return true
}

// printStats renders the unified station snapshot.
func printStats(s cluster.StatsReply) {
	fmt.Printf("station %d: %d tables, %d document objects\n", s.Pos, s.Tables, s.Objects)
	fmt.Printf("  wire      %d bytes in, %d bytes out\n", s.BytesIn, s.BytesOut)
	if len(s.Ops) > 0 {
		methods := make([]string, 0, len(s.Ops))
		for m := range s.Ops {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		fmt.Printf("  ops       ")
		for i, m := range methods {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s=%d", m, s.Ops[m])
		}
		fmt.Println()
	}
	if s.Durable {
		fmt.Printf("  wal       checkpoint gen %d, seq %d, %d tail bytes\n", s.CheckpointGen, s.WALSeq, s.WALTailBytes)
	} else {
		fmt.Printf("  wal       in-memory (no durability directory)\n")
	}
	fmt.Printf("  blobs     %d objects, %d physical bytes (%d logical), %d unverified, %d failed verification\n",
		s.BlobObjects, s.PhysicalBytes, s.LogicalBytes, s.BlobUnverified, s.VerifyFailures)
	if s.Indexed {
		fmt.Printf("  index     %d docs, %d terms, %d postings\n", s.IndexDocs, s.IndexTerms, s.IndexPostings)
	} else {
		fmt.Printf("  index     none attached\n")
	}
	if len(s.Latency) > 0 {
		fmt.Printf("  latency   %d method(s) instrumented; hottest:\n", len(s.Latency))
		methods := obs.MethodsByTotal(s.Latency)
		if len(methods) > 3 {
			methods = methods[:3]
		}
		for _, m := range methods {
			sum := s.Latency[m]
			fmt.Printf("    %-24s n=%-6d p50=%.2fms p99=%.2fms max=%.2fms\n",
				m, sum.Count, sum.P50Ms, sum.P99Ms, sum.MaxMs)
		}
	}
}

// eventsFollowInterval paces the `events -follow` polling loop.
const eventsFollowInterval = time.Second

// runEvents executes the events verb: one merged fabric-wide timeline
// query, or — with -follow — a polling loop that streams only news.
func runEvents(admin *fabric.Admin, ef eventFlags) {
	f := ef.filter()
	if !ef.follow {
		res, err := admin.Events(f)
		if err != nil {
			fail("events: %v", err)
		}
		if emit(res) {
			return
		}
		printEvents(res)
		return
	}
	// Follow mode polls with the flag's cursor and advances a
	// per-station cursor client-side: each station's journal has its
	// own monotonic sequence, so one fabric-wide floor cannot express
	// "everything I have not seen yet" (and a rejoined station restarts
	// its sequence from 1). The journals are bounded rings, so
	// re-reading them each poll is cheap.
	cursors := make(map[int]uint64)
	for {
		res, err := admin.Events(f)
		if err != nil {
			fail("events: %v", err)
		}
		var fresh []obs.Event
		for _, e := range res.Events {
			if cur, ok := cursors[e.Station]; !ok || e.Seq > cur {
				fresh = append(fresh, e)
			}
		}
		obs.SortEvents(fresh)
		for _, e := range fresh {
			if e.Seq > cursors[e.Station] {
				cursors[e.Station] = e.Seq
			}
			fmt.Println(formatEvent(e))
		}
		time.Sleep(eventsFollowInterval)
	}
}

// formatEvent renders one journal event as a timeline line.
func formatEvent(e obs.Event) string {
	line := fmt.Sprintf("%s  station %-3d #%-5d %-5s %-10s %s",
		e.Time.Format("15:04:05.000000"), e.Station, e.Seq, e.Severity, e.Category,
		strings.TrimPrefix(e.Line(), "event="))
	if e.TraceID != 0 {
		line += "  (trace " + obs.FormatTraceID(e.TraceID) + ")"
	}
	return line
}

// printEvents renders a merged fabric-wide timeline.
func printEvents(res fabric.EventsReply) {
	dead := 0
	for _, sr := range res.Stations {
		if sr.Err != "" {
			dead++
		}
	}
	fmt.Printf("%d event(s) from %d station(s), %d unreachable\n",
		len(res.Events), len(res.Stations)-dead, dead)
	for _, e := range res.Events {
		fmt.Println("  " + formatEvent(e))
	}
	for _, sr := range res.Stations {
		if sr.Err != "" {
			fmt.Printf("  station %-3d UNREACHABLE %s\n", sr.Pos, sr.Err)
		}
	}
}

// printTrace renders a collected trace as its hop tree: spans indexed
// by SpanID, children nested under their parent hop, orphans (parent
// span lost to ring eviction or a dead station) promoted to roots.
// Journal events correlated to the trace interleave under the hop
// whose station and time window they fall in; the rest (for example an
// event on a station whose span was evicted) trail the tree.
func printTrace(res fabric.TraceReply, events []obs.Event) {
	fmt.Printf("trace %s: %d span(s)\n", obs.FormatTraceID(res.ID), len(res.Spans))
	byID := make(map[uint64]obs.Span, len(res.Spans))
	for _, sp := range res.Spans {
		byID[sp.SpanID] = sp
	}
	children := make(map[uint64][]obs.Span, len(res.Spans))
	var roots []obs.Span
	for _, sp := range res.Spans {
		if _, ok := byID[sp.Parent]; sp.Parent != 0 && ok {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	consumed := make([]bool, len(events))
	var render func(sp obs.Span, depth int)
	render = func(sp obs.Span, depth int) {
		indent := strings.Repeat("  ", depth+1)
		line := fmt.Sprintf("%sstation %-3d %-20s %8s  %d bytes",
			indent, sp.Station, sp.Method, sp.Duration.Round(10*time.Microsecond), sp.Bytes)
		if sp.Err != "" {
			line += "  ERROR " + sp.Err
		}
		fmt.Println(line)
		for _, note := range sp.Notes {
			fmt.Printf("%s  ! %s\n", indent, note)
		}
		end := sp.Start.Add(sp.Duration)
		for i, e := range events {
			if consumed[i] || e.Station != sp.Station || e.Time.Before(sp.Start) || e.Time.After(end) {
				continue
			}
			consumed[i] = true
			fmt.Printf("%s  * event %s %s\n", indent, e.Name,
				strings.TrimPrefix(e.Line(), "event="+e.Name))
		}
		for _, kid := range children[sp.SpanID] {
			render(kid, depth+1)
		}
	}
	for _, sp := range roots {
		render(sp, 0)
	}
	var leftovers []obs.Event
	for i, e := range events {
		if !consumed[i] {
			leftovers = append(leftovers, e)
		}
	}
	if len(leftovers) > 0 {
		fmt.Println("  correlated events outside the collected hops:")
		for _, e := range leftovers {
			fmt.Println("  " + formatEvent(e))
		}
	}
	for _, sr := range res.Stations {
		if sr.Err != "" {
			fmt.Printf("  station %-3d UNREACHABLE %s\n", sr.Pos, sr.Err)
		}
	}
}

// printTop renders the station's per-method latency histograms hottest
// first — the quick "where is the time going" view.
func printTop(s cluster.StatsReply) {
	fmt.Printf("station %d: %d instrumented method(s)\n", s.Pos, len(s.Latency))
	if len(s.Latency) == 0 {
		fmt.Println("  no latency histograms recorded (observability disabled or no traffic yet)")
		return
	}
	fmt.Printf("  %-24s %8s %6s %9s %9s %9s %9s %10s\n",
		"method", "count", "errs", "p50", "p95", "p99", "max", "total")
	for _, m := range obs.MethodsByTotal(s.Latency) {
		sum := s.Latency[m]
		fmt.Printf("  %-24s %8d %6d %8.2fms %8.2fms %8.2fms %8.2fms %9.1fms\n",
			m, sum.Count, sum.Errors, sum.P50Ms, sum.P95Ms, sum.P99Ms, sum.MaxMs, sum.TotalMs)
	}
}

// printHealth renders a liveness view: one line per roster entry with
// its up/down/suspect state.
func printHealth(h fabric.HealthReply) {
	role := "station"
	if h.IsRoot {
		role = "root"
	}
	fmt.Printf("%s %d of %d, epoch %d, %d down\n", role, h.Pos, h.N, h.Epoch, len(h.Down))
	down := make(map[int]bool, len(h.Down))
	for _, pos := range h.Down {
		down[pos] = true
	}
	suspect := make(map[int]bool, len(h.Suspect))
	for _, pos := range h.Suspect {
		suspect[pos] = true
	}
	positions := make([]int, 0, len(h.Roster))
	for pos := range h.Roster {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	for _, pos := range positions {
		state := "up"
		switch {
		case down[pos]:
			state = "DOWN"
		case suspect[pos]:
			state = "suspect"
		}
		fmt.Printf("  station %-3d %-21s %s\n", pos, h.Roster[pos], state)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: webdocctl [-addr host:port] [-json] [-refs] [-k N] [-phrase] COMMAND
commands:
  ping                 station status
  stats                unified station accounting (ops, bytes, WAL, blobs, index)
  tables               list relational tables
  sql "STATEMENT"      run a minisql statement
  checkpoint           write a checkpoint generation now (compacts the WAL tail)
  pull URL TARGET      copy a document bundle to another station
  topology             show the distribution fabric (any joined station)
  broadcast URL...     push course(s) down the m-ary tree (root; -refs for references;
                       several URLs share one batched traversal)
  resolve URL          make the station pull the document up its parent route
  migrate URL          post-lecture migration back to references (root)
  health               show per-station liveness (root view is authoritative)
  evict POS            force-mark a station dead on the root (heartbeats revive it if it still answers)
  search TERM...       federation-wide full-text query ([-k N] hits, [-phrase] exact phrase)
  trace HEXID          reconstruct an op's hop tree fabric-wide, with correlated journal
                       events interleaved (ID printed by broadcast/resolve/migrate/search)
  events               merged fabric-wide event timeline from every live station's journal
                       ([-since-seq N] [-category C] [-severity S] [-trace HEXID] filters;
                       [-follow] polls and streams only new events)
  top                  per-method latency histograms on the station, hottest first
flags apply to every command; -json prints the raw typed reply as indented JSON`)
	os.Exit(2)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "webdocctl: "+format+"\n", args...)
	os.Exit(1)
}
