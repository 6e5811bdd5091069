package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/transport"
	"repro/internal/workload"
)

// echoServer is a transport endpoint that swallows a payload and
// answers with its length: an RPC of any chosen size whose cost is the
// frame, the socket and the copy — the transport layer alone, with no
// handler work behind it.
type echoServer struct {
	srv  *transport.Server
	pool *transport.Pool
}

func startEcho() (*echoServer, error) {
	srv := transport.NewServer()
	srv.Handle("Echo", func(decode func(any) error) (any, error) {
		var payload []byte
		if err := decode(&payload); err != nil {
			return nil, err
		}
		return len(payload), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &echoServer{srv: srv, pool: transport.NewPool(addr, clientThreads, time.Minute)}, nil
}

// call sends payload and waits for the acknowledgement.
func (e *echoServer) call(payload []byte) error {
	var n int
	if err := e.pool.Call("Echo", payload, &n); err != nil {
		return err
	}
	if n != len(payload) {
		return fmt.Errorf("echo acknowledged %d of %d bytes", n, len(payload))
	}
	return nil
}

func (e *echoServer) close() {
	e.pool.Close()
	e.srv.Close()
}

// replayer holds the scratch stores a traced run replays sampled ops
// on: a durable scratch station (so an import pays its WAL append like
// the live ones), and bare layer objects for the children of an
// import — a relational store, a BLOB store and a content index.
type replayer struct {
	rec     *recorder
	echo    *echoServer
	station *station
	rows    *docdb.Store
	blobs   *blob.Store
	index   *search.Index
	errs    []error
}

func newReplayer(rec *recorder, dir string) (*replayer, error) {
	echo, err := startEcho()
	if err != nil {
		return nil, err
	}
	st, err := openStation(filepath.Join(dir, "replay-station"))
	if err != nil {
		echo.close()
		return nil, err
	}
	rows, err := workload.NewStore()
	if err != nil {
		echo.close()
		return nil, err
	}
	return &replayer{rec: rec, echo: echo, station: st, rows: rows, blobs: blob.NewStore(), index: search.NewIndex()}, nil
}

func (rp *replayer) close() {
	rp.echo.close()
	rp.station.abandon()
}

// note keeps a replay error for the run's notes; a replay failure
// spoils a per-layer number, never the workload's own result.
func (rp *replayer) note(err error) {
	if err != nil && len(rp.errs) < 5 {
		rp.errs = append(rp.errs, err)
	}
}

// report adds the replay errors kept so far to a run's notes. Safe on a
// nil replayer (an untraced run has none).
func (rp *replayer) report(res *result) {
	if rp == nil {
		return
	}
	for _, err := range rp.errs {
		res.Notes = append(res.Notes, "replay: "+err.Error())
	}
}

// edge replays one tree edge for a gob-bodied message: marshal, an
// echo RPC of the same size, unmarshal into out.
func (rp *replayer) edge(parent, op int, msg, out any) {
	var body []byte
	rp.rec.replay(parent, op, "transport", "transport.Marshal", func() {
		b, err := transport.Marshal(msg)
		rp.note(err)
		body = b
	})
	rp.rec.replay(parent, op, "transport", "echo RPC of equal size", func() {
		rp.note(rp.echo.call(body))
	})
	rp.rec.replay(parent, op, "transport", "transport.Unmarshal", func() {
		rp.note(transport.Unmarshal(body, out))
	})
}

// importBundle replays a bundle install: docdb.ImportBundle on the
// scratch station as the span, with the relational batch, the BLOB
// puts and the page indexing replayed beneath it on bare layer
// objects. The scratch copies are dropped afterwards, untimed, so
// every replay starts from the same state.
func (rp *replayer) importBundle(parent, op int, b *docdb.Bundle) {
	url := b.Impl.StartingURL
	id := rp.rec.replay(parent, op, "docdb", "docdb.ImportBundle", func() {
		_, err := rp.station.store.ImportBundle(b, 9, false)
		rp.note(err)
	})
	rp.note(dropInstance(rp.station.store, url))

	if _, err := rp.rows.ImportReference(b.Script, b.Impl, 9, 1); err != nil {
		rp.note(err)
		return
	}
	var batch relstore.Batch
	for _, f := range b.HTML {
		batch.Insert(schema.TableHTMLFiles, relstore.Row{
			"file_id": url + "#" + f.Path, "starting_url": url, "path": f.Path, "content": f.Content,
		})
	}
	rp.rec.replay(id, op, "relstore", "relstore.Apply (page rows)", func() {
		rp.note(rp.rows.Rel().Apply(&batch))
	})
	var undo relstore.Batch
	for _, f := range b.HTML {
		undo.Delete(schema.TableHTMLFiles, url+"#"+f.Path)
	}
	rp.note(rp.rows.Rel().Apply(&undo))

	var refs []blob.Ref
	rp.rec.replay(id, op, "blob", "blob.Put (media)", func() {
		for _, m := range b.Media {
			refs = append(refs, rp.blobs.Put(m.Name, m.Kind, m.Data))
		}
	})
	for _, ref := range refs {
		rp.note(rp.blobs.Release(ref))
	}
	rp.rec.replay(id, op, "search", "search.IndexHTML (pages)", func() {
		for _, f := range b.HTML {
			rp.index.IndexHTML(url, f.Path, f.Content)
		}
	})
	rp.index.RemoveContent(url)
}

// dropInstance migrates a scratch instance back to a reference.
func dropInstance(store *docdb.Store, url string) error {
	obj, err := store.ObjectByURL(url)
	if err != nil {
		return err
	}
	if obj.Form != schema.FormInstance {
		return nil
	}
	return store.MigrateToReference(obj.ID, 1)
}
