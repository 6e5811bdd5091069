package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/docdb"
	"repro/internal/fabric"
	"repro/internal/minisql"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The per-layer ledger: one fixed pass, run at the end of every traced
// run, that times each layer's public functions on the corpus — wire,
// transport, relstore, blob, docdb, search, cluster, fabric, bottom to
// top. It is the same pass on every workload, so a layer's number can
// be read beside any end-to-end metric. A number the workload measured
// itself, on its own inputs, wins over the ledger's (layerDefault).

// Ledger sample counts: enough for a steady median, small enough that
// the whole pass takes a few seconds.
const (
	ledgerSmallCalls = 2000
	ledgerBulkCalls  = 36
	ledgerHeavyCalls = 7
	ledgerRowCalls   = 300
	ledgerQueries    = 400
)

// layerDefault records a ledger number unless the workload already
// measured that name on its own inputs.
func (r *result) layerDefault(name string, v float64, unit string, n int) {
	if _, ok := r.PerLayer[name]; !ok {
		r.layer(name, v, unit, n)
	}
}

// keeper returns a function that remembers the first error it is given,
// for timed loops whose calls must not branch on failure.
func keeper(first *error) func(error) {
	return func(err error) {
		if err != nil && *first == nil {
			*first = err
		}
	}
}

func mbPerSec(bytes int64, d time.Duration) float64 {
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// scale shrinks a sample count for the smoke run.
func scale(cfg config, n int) int {
	if cfg.smoke {
		if n = n / 20; n < 2 {
			n = 2
		}
	}
	return n
}

func runLedger(cfg config, dir string, res *result) error {
	node, err := openStation(filepath.Join(dir, "ledger-station"))
	if err != nil {
		return err
	}
	defer node.abandon()
	corp, err := buildCorpus(node.store, corpusCourses)
	if err != nil {
		return err
	}
	echo, err := startEcho()
	if err != nil {
		return err
	}
	defer echo.close()

	ledgerWire(cfg, res, node.store)
	if err := ledgerTransport(cfg, res, echo, corp); err != nil {
		return err
	}
	ledgerBlob(res, corp)
	ledgerSearch(cfg, res, node, corp)
	if err := ledgerRelstore(cfg, res, node, corp, dir); err != nil {
		return err
	}
	if err := ledgerDocdb(cfg, res, node, corp, dir); err != nil {
		return err
	}
	if err := ledgerCluster(cfg, res, node, corp); err != nil {
		return err
	}
	return ledgerFabric(cfg, res, filepath.Join(dir, "ledger-fabric"))
}

// tableRows collects every row of the content tables: the rows a WAL
// record or a snapshot actually carries.
func tableRows(store *docdb.Store) []relstore.Row {
	var rows []relstore.Row
	for _, table := range []string{schema.TableHTMLFiles, schema.TableImplMedia, schema.TableScripts, schema.TableDocObjects} {
		store.Rel().Scan(table, func(r relstore.Row) bool {
			rows = append(rows, r)
			return true
		})
	}
	return rows
}

// ledgerWire times the codec on the corpus' own rows: each row as
// sorted (column, tagged value) pairs, the shape the WAL and the
// snapshot give it, then the CRC-framed record around a batch.
func ledgerWire(cfg config, res *result, store *docdb.Store) {
	rows := tableRows(store)
	cols := make([][]string, len(rows))
	for i, r := range rows {
		for c := range r {
			cols[i] = append(cols[i], c)
		}
		sort.Strings(cols[i])
	}
	encode := func(dst []byte) []byte {
		for i, r := range rows {
			dst = wire.AppendUvarint(dst, uint64(len(cols[i])))
			for _, c := range cols[i] {
				dst = wire.AppendString(dst, c)
				dst, _ = wire.AppendValue(dst, r[c])
			}
		}
		return dst
	}
	rounds := scale(cfg, 40)
	var buf []byte
	enc := timeN(rounds, func() { buf = encode(buf[:0]) })
	dec := timeN(rounds, func() {
		rd := wire.NewReader(buf)
		for range rows {
			for n := rd.Uvarint(); n > 0; n-- {
				_, _ = rd.String(), rd.Value()
			}
		}
	})
	n := len(rows)
	res.layerDefault("wire.encode_ns_row", float64(enc.p50().Nanoseconds())/float64(n), "ns", rounds*n)
	res.layerDefault("wire.decode_ns_row", float64(dec.p50().Nanoseconds())/float64(n), "ns", rounds*n)
	var framed []byte
	rec := timeN(rounds, func() {
		framed = wire.AppendRecord(framed[:0], buf)
		wire.ReadRecord(bufio.NewReader(bytes.NewReader(framed)), 0)
	})
	res.layerDefault("wire.record_mb_s", mbPerSec(int64(len(buf)), rec.p50()), "MB/s", rounds)
}

// ledgerTransport times the frame-and-socket path with a small and a
// bundle-sized echo, and the gob body codec on a push request.
func ledgerTransport(cfg config, res *result, echo *echoServer, corp *corpus) error {
	small := make([]byte, 64)
	var callErr error
	call := func(p []byte) {
		if err := echo.call(p); err != nil {
			callErr = err
		}
	}
	n := scale(cfg, ledgerSmallCalls)
	res.layerDefault("transport.rtt_small_us_p50", us(timeN(n, func() { call(small) }).p50()), "us", n)

	var bodies [][]byte
	var bodyBytes int64
	marshal := make(samples, len(corp.bundles))
	for i, b := range corp.bundles {
		t0 := time.Now()
		body, err := transport.Marshal(fabric.PushRequest{Bundles: []docdb.Bundle{*b}})
		marshal[i] = time.Since(t0)
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
		bodyBytes += int64(len(body))
	}
	var total time.Duration
	for _, d := range marshal {
		total += d
	}
	res.layerDefault("transport.marshal_mb_s", mbPerSec(bodyBytes, total), "MB/s", len(bodies))
	t0 := time.Now()
	for _, body := range bodies {
		var req fabric.PushRequest
		if err := transport.Unmarshal(body, &req); err != nil {
			return err
		}
	}
	res.layerDefault("transport.unmarshal_mb_s", mbPerSec(bodyBytes, time.Since(t0)), "MB/s", len(bodies))
	k := 0
	n = scale(cfg, ledgerBulkCalls)
	bundleRTT := timeN(n, func() { call(bodies[k%len(bodies)]); k++ })
	res.layerDefault("transport.rtt_bundle_ms_p50", ms(bundleRTT.p50()), "ms", n)
	return callErr
}

// ledgerBlob times the BLOB layer on the corpus' media.
func ledgerBlob(res *result, corp *corpus) {
	var media []docdb.BundleMedia
	var total int64
	for _, b := range corp.bundles {
		for _, m := range b.Media {
			media = append(media, m)
			total += int64(len(m.Data))
		}
	}
	store := blob.NewStore()
	refs := make([]blob.Ref, len(media))
	t0 := time.Now()
	for i, m := range media {
		refs[i] = store.Put(m.Name, m.Kind, m.Data)
	}
	res.layerDefault("blob.put_mb_s", mbPerSec(total, time.Since(t0)), "MB/s", len(media))
	t0 = time.Now()
	for _, ref := range refs {
		store.Get(ref)
	}
	res.layerDefault("blob.get_mb_s", mbPerSec(total, time.Since(t0)), "MB/s", len(media))
	var image bytes.Buffer
	t0 = time.Now()
	store.Snapshot(&image)
	res.layerDefault("blob.snapshot_mb_s", mbPerSec(total, time.Since(t0)), "MB/s", len(media))
	t0 = time.Now()
	blob.NewStore().Restore(bytes.NewReader(image.Bytes()))
	res.layerDefault("blob.restore_mb_s", mbPerSec(total, time.Since(t0)), "MB/s", len(media))
	// A second edition sharing every resource: the sharing the
	// content-addressed store gives re-used media.
	for _, m := range media {
		store.Put(m.Name+"-again", m.Kind, m.Data)
	}
	res.layerDefault("blob.sharing_factor", store.Stats().SharingFactor(), "ratio", len(media))
}

// ledgerSearch times the index on the corpus' pages and query mix.
func ledgerSearch(cfg config, res *result, node *station, corp *corpus) {
	ix := search.NewIndex()
	pages := 0
	t0 := time.Now()
	for _, b := range corp.bundles {
		for _, f := range b.HTML {
			ix.IndexHTML(b.Impl.StartingURL, f.Path, f.Content)
			pages++
		}
	}
	res.layerDefault("search.index_us_doc", us(time.Since(t0))/float64(pages), "us", pages)
	st := node.index.Stats()
	res.layerDefault("search.postings_per_doc", float64(st.Postings)/float64(st.Docs), "postings", st.Docs)

	rng := planRNG(cfg.seed, streamStorm+1)
	n := scale(cfg, ledgerQueries)
	queries := make([]search.Query, n)
	for i := range queries {
		q := drawQuery(rng, corpusCourses)
		queries[i] = search.Query{Terms: q.Terms, Phrase: q.Phrase, TopK: stormTopK}
	}
	k := 0
	var lists [][]search.Hit
	query := timeN(n, func() { lists = append(lists, node.index.Search(queries[k])); k++ })
	res.layerDefault("search.query_us_p50", us(query.p50()), "us", n)
	k = 0
	merge := timeN(n, func() {
		search.Merge(stormTopK, lists[k], lists[(k+1)%n], lists[(k+2)%n], lists[(k+3)%n])
		k++
	})
	res.layerDefault("search.merge_us_p50", us(merge.p50()), "us", n)
}

// pageBatch is one course's page rows as a relational batch, and the
// batch that removes them again.
func pageBatch(b *docdb.Bundle, tag string) (insert, remove relstore.Batch) {
	url := b.Impl.StartingURL
	for _, f := range b.HTML {
		id := url + "#" + tag + f.Path
		insert.Insert(schema.TableHTMLFiles, relstore.Row{"file_id": id, "starting_url": url, "path": tag + f.Path, "content": f.Content})
		remove.Delete(schema.TableHTMLFiles, id)
	}
	return insert, remove
}

// ledgerRelstore times the engine alone: the same batch with the WAL
// detached and attached (the difference is the append), point reads,
// and a checkpoint and a recovery without the document layer's
// sidecars.
func ledgerRelstore(cfg config, res *result, node *station, corp *corpus, dir string) error {
	n := scale(cfg, ledgerRowCalls)
	mem, err := workload.NewStore()
	if err != nil {
		return err
	}
	for _, b := range corp.bundles {
		if _, err := mem.ImportReference(b.Script, b.Impl, 9, 1); err != nil {
			return err
		}
	}
	apply := func(rel *relstore.DB) (samples, error) {
		var out samples
		for i := 0; i < n; i++ {
			ins, del := pageBatch(corp.bundles[i%len(corp.bundles)], "ledger-")
			t0 := time.Now()
			if err := rel.Apply(&ins); err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0))
			if err := rel.Apply(&del); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	memLat, err := apply(mem.Rel())
	if err != nil {
		return err
	}
	rel := node.store.Rel()
	seq0, tail0 := rel.LastSeq(), rel.WALTailBytes()
	walLat, err := apply(rel)
	if err != nil {
		return err
	}
	res.layerDefault("relstore.apply_mem_us_p50", us(memLat.p50()), "us", n)
	res.layerDefault("relstore.apply_wal_us_p50", us(walLat.p50()), "us", n)
	res.layerDefault("relstore.wal_bytes_per_commit", float64(rel.WALTailBytes()-tail0)/float64(rel.LastSeq()-seq0), "B", int(rel.LastSeq()-seq0))

	id := corp.bundles[0].Impl.StartingURL + "#" + workload.PagePath(1)
	gets := scale(cfg, 20000)
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		if _, err := rel.Get(schema.TableHTMLFiles, id); err != nil {
			return err
		}
	}
	res.layerDefault("relstore.get_ns", float64(time.Since(t0).Nanoseconds())/float64(gets), "ns", gets)

	relDir := filepath.Join(dir, "ledger-relstore")
	heavy := scale(cfg, ledgerHeavyCalls)
	var ckptErr error
	ckpt := timeN(heavy, func() {
		if _, err := rel.Checkpoint(relDir); err != nil {
			ckptErr = err
		}
	})
	if ckptErr != nil {
		return ckptErr
	}
	res.layerDefault("relstore.checkpoint_ms_p50", ms(ckpt.p50()), "ms", heavy)
	var recErr error
	recov := timeN(heavy, func() {
		fresh := relstore.NewDB()
		if _, err := fresh.OpenDurable(relDir); err != nil {
			recErr = err
		}
		fresh.CloseWAL()
	})
	if recErr != nil {
		return recErr
	}
	res.layerDefault("relstore.recover_ms_p50", ms(recov.p50()), "ms", heavy)
	return nil
}

// ledgerDocdb times the document layer: bundle export, install and
// migration, reference install, the checkout pair, and the coordinated
// checkpoint and recovery with their sidecars.
func ledgerDocdb(cfg config, res *result, node *station, corp *corpus, dir string) error {
	n := scale(cfg, ledgerBulkCalls)
	k := 0
	var opErr error
	keep := keeper(&opErr)
	export := timeN(n, func() {
		_, err := node.store.ExportBundle(corp.specs[k%len(corp.specs)].URL)
		keep(err)
		k++
	})
	res.layerDefault("docdb.export_ms_p50", ms(export.p50()), "ms", n)

	scratch, err := openStation(filepath.Join(dir, "ledger-scratch"))
	if err != nil {
		return err
	}
	defer scratch.abandon()
	var refLat, importLat, migrateLat samples
	for _, b := range corp.bundles {
		t0 := time.Now()
		_, err := scratch.store.ImportReference(b.Script, b.Impl, 9, 1)
		refLat = append(refLat, time.Since(t0))
		keep(err)
	}
	for i := 0; i < n; i++ {
		b := corp.bundles[i%len(corp.bundles)]
		t0 := time.Now()
		_, err := scratch.store.ImportBundle(b, 9, false)
		importLat = append(importLat, time.Since(t0))
		keep(err)
		t0 = time.Now()
		keep(dropInstance(scratch.store, b.Impl.StartingURL))
		migrateLat = append(migrateLat, time.Since(t0))
	}
	res.layerDefault("docdb.import_ref_us_p50", us(refLat.p50()), "us", len(refLat))
	res.layerDefault("docdb.import_ms_p50", ms(importLat.p50()), "ms", n)
	res.layerDefault("docdb.migrate_ms_p50", ms(migrateLat.p50()), "ms", n)

	pairs := scale(cfg, ledgerRowCalls)
	k = 0
	pair := timeN(pairs, func() {
		id, err := scratch.store.CheckOut(schema.KindScript, corp.specs[k%len(corp.specs)].ScriptName, "ledger")
		keep(err)
		if err == nil {
			keep(scratch.store.CheckIn(id, "ledger"))
		}
		k++
	})
	res.layerDefault("docdb.checkout_pair_us_p50", us(pair.p50()), "us", pairs)

	heavy := scale(cfg, ledgerHeavyCalls)
	var ckptBytes int64
	ckpt := timeN(heavy, func() {
		info, err := node.store.CheckpointNow()
		keep(err)
		if err == nil {
			ckptBytes = checkpointBytes(node.dir, info)
		}
	})
	sorted := ckpt.sorted()
	res.layerDefault("docdb.checkpoint_ms_p50", ms(nearestRank(sorted, 0.5)), "ms", heavy)
	res.layerDefault("docdb.checkpoint_ms_max", ms(sorted[len(sorted)-1]), "ms", heavy)
	res.layerDefault("docdb.checkpoint_bytes_per_live_byte", float64(ckptBytes)/float64(node.store.Blobs().Stats().PhysicalBytes), "ratio", heavy)
	if opErr != nil {
		return opErr
	}

	// Recovery: the whole start-up sequence on a copy of the
	// checkpointed directory, then the index recovery alone.
	copyTo := filepath.Join(dir, "ledger-recover")
	if err := copyDir(node.dir, copyTo); err != nil {
		return err
	}
	recov := timeN(heavy, func() {
		st, err := openStation(copyTo)
		keep(err)
		if err == nil {
			keep(st.abandon())
		}
	})
	res.layerDefault("docdb.recover_ms_p50", ms(recov.p50()), "ms", heavy)
	gen := node.store.Rel().Generation()
	sidecar, _ := os.ReadFile(sidecarPath(copyTo, "search", gen))
	ixRecov := timeN(heavy, func() {
		keep(search.NewIndex().RecoverCheckpoint(sidecar, node.store.Rel(), 0))
	})
	res.layerDefault("search.recover_ms_p50", ms(ixRecov.p50()), "ms", heavy)
	return opErr
}

// ledgerCluster times the station RPC surface against its direct call:
// each number is the RPC's median minus the direct call's — what the
// station service adds on top of the document layer.
func ledgerCluster(cfg config, res *result, node *station, corp *corpus) error {
	srv := cluster.NewNode(1, node.store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	conn, err := cluster.DialStation(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var opErr error
	keep := keeper(&opErr)
	overhead := func(rpc, direct samples) float64 { return us(rpc.p50() - direct.p50()) }

	n := scale(cfg, ledgerRowCalls)
	k := 0
	script := func() string { k++; return corp.specs[k%len(corp.specs)].ScriptName }
	rpcPair := timeN(n, func() {
		id, err := conn.CheckOut(schema.KindScript, script(), "ledger")
		keep(err)
		if err == nil {
			keep(conn.CheckIn(id, "ledger"))
		}
	})
	directPair := timeN(n, func() {
		id, err := node.store.CheckOut(schema.KindScript, script(), "ledger")
		keep(err)
		if err == nil {
			keep(node.store.CheckIn(id, "ledger"))
		}
	})
	res.layerDefault("cluster.rpc_checkout_pair_us_p50", overhead(rpcPair, directPair), "us", n)

	sql := minisql.NewSession(node.store.Rel())
	insert := func(prefix string) string {
		k++
		return fmt.Sprintf("INSERT INTO annotations (ann_name, script_name, author, version) VALUES ('%s-%06d', '%s', 'ledger', 1)",
			prefix, k, corp.specs[k%len(corp.specs)].ScriptName)
	}
	rpcInsert := timeN(n, func() { _, err := conn.SQL(insert("rpc")); keep(err) })
	directInsert := timeN(n, func() { _, err := sql.Exec(insert("direct")); keep(err) })
	res.layerDefault("cluster.rpc_sql_insert_us_p50", overhead(rpcInsert, directInsert), "us", n)

	bulk := scale(cfg, ledgerBulkCalls)
	rpcFetch := timeN(bulk, func() { k++; _, err := conn.FetchBundle(corp.specs[k%len(corp.specs)].URL); keep(err) })
	directFetch := timeN(bulk, func() { k++; _, err := node.store.ExportBundle(corp.specs[k%len(corp.specs)].URL); keep(err) })
	res.layerDefault("cluster.rpc_fetch_bundle_ms_p50", ms(rpcFetch.p50()-directFetch.p50()), "ms", bulk)

	rng := planRNG(cfg.seed, streamStorm+2)
	queries := make([]query, n)
	for i := range queries {
		queries[i] = drawQuery(rng, corpusCourses)
	}
	q := 0
	rpcSearch := timeN(n, func() {
		_, err := conn.SearchLocal(queries[q].Terms, queries[q].Phrase, stormTopK)
		keep(err)
		q++
	})
	q = 0
	directSearch := timeN(n, func() {
		node.index.Search(search.Query{Terms: queries[q].Terms, Phrase: queries[q].Phrase, TopK: stormTopK})
		q++
	})
	res.layerDefault("cluster.rpc_search_local_us_p50", overhead(rpcSearch, directSearch), "us", n)
	return opErr
}

// ledgerFabric probes a scratch fabric: one full broadcast and
// migration per course with the system's own hop tree, then a round of
// resolves and federated searches.
func ledgerFabric(cfg config, res *result, dir string) error {
	st, err := setupFabric(cfg, dir, false)
	if err != nil {
		return err
	}
	defer st.close()
	root := st.host.admins[0]
	rec := newRecorder() // hop spans of the probe are folded, not kept
	var push, migrate samples
	var hops, searchHops hopStats
	covered := 0
	specs := st.corpus.specs
	if cfg.smoke {
		specs = specs[:2]
	}
	for i, spec := range specs {
		t0 := time.Now()
		bres, err := root.Broadcast(spec.URL, false)
		push = append(push, time.Since(t0))
		if err == nil {
			err = stationErrors(bres.Stations, fabricStations-1)
		}
		if err != nil {
			return fmt.Errorf("probe broadcast: %w", err)
		}
		covered += len(bres.Stations)
		hops.collect(rec, 0, i, root, bres.TraceID, "Fabric.Push")
		t0 = time.Now()
		if _, err := root.EndLecture(spec.URL); err != nil {
			return fmt.Errorf("probe end-lecture: %w", err)
		}
		migrate = append(migrate, time.Since(t0))
	}
	n := len(push)
	res.layerDefault("fabric.push_ms_p95", ms(nearestRank(push.sorted(), 0.95)), "ms", n)
	res.layerDefault("fabric.migrate_ms_p50", ms(migrate.p50()), "ms", n)
	res.layerDefault("fabric.coverage_share", float64(covered)/float64(n*(fabricStations-1)), "share", n)
	hops.report(res)

	var resolve samples
	hopSum, remote := 0, 0
	for s := 1; s < fabricStations; s++ {
		for c := 0; c < 2 && c < len(specs); c++ {
			t0 := time.Now()
			fr, err := st.host.admins[s].Fetch(specs[c].URL)
			if err != nil {
				return fmt.Errorf("probe fetch: %w", err)
			}
			resolve = append(resolve, time.Since(t0))
			if !fr.Local {
				from, _ := depthOf(s + 1)
				to, _ := depthOf(fr.ServedBy)
				hopSum += from - to
				remote++
			}
		}
	}
	rng := planRNG(cfg.seed, streamStorm+3)
	for i := 0; i < scale(cfg, 60); i++ {
		q := drawQuery(rng, corpusCourses)
		rep, err := st.host.admins[i%fabricStations].Search(q.Terms, q.Phrase, stormTopK)
		if err != nil {
			return fmt.Errorf("probe search: %w", err)
		}
		searchHops.collect(rec, 0, i, root, rep.TraceID, "Fabric.Search")
	}
	if remote > 0 {
		res.layerDefault("fabric.resolve_hops_mean", float64(hopSum)/float64(remote), "hops", remote)
	}
	if searchHops.traces > 0 {
		res.layerDefault("fabric.search_self_ms_p50", ms(searchHops.self.p50()), "ms", len(searchHops.self))
	}
	return nil
}
