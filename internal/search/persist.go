package search

import (
	"fmt"
	"sort"

	"repro/internal/docdb"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/wire"
)

// Checkpoint coupling and recovery. The index is a cache over the
// relational content tables, so persistence is best-effort: a
// checkpoint captures the token streams as a search-<gen> sidecar
// (docdb writes the file beside its BLOB sidecar), and recovery loads
// it only when it provably matches the restored relational state —
// otherwise the index rebuilds from the tables, which is always
// correct and costs one scan of the content rows.

// A search-<gen> sidecar is a binary image under wire.SearchMagic:
//
//	[uvarint ndocs] per doc:
//	  [key string][kind string][url string][path string]
//	  [uvarint ntokens tokens...]

// CaptureCheckpoint snapshots the index for the checkpoint sidecar.
// docdb calls it inside the write-quiescent window — and content
// writes index through commit-atomic hooks (relstore.ApplyThen), so
// the captured token streams describe exactly the history cut of the
// relational snapshot. Only a shallow map copy happens in the window
// (documents are immutable once installed); the returned closure does
// the encoding after the window closes, off the writers' path.
func (ix *Index) CaptureCheckpoint() func() ([]byte, error) {
	ix.mu.RLock()
	docs := make(map[string]*doc, len(ix.docs))
	for k, d := range ix.docs {
		docs[k] = d
	}
	ix.mu.RUnlock()
	return func() ([]byte, error) {
		payload := wire.GetBuf()
		payload = wire.AppendUvarint(payload, uint64(len(docs)))
		keys := make([]string, 0, len(docs))
		for k := range docs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			d := docs[k]
			payload = wire.AppendString(payload, k)
			payload = wire.AppendString(payload, d.Kind)
			payload = wire.AppendString(payload, d.URL)
			payload = wire.AppendString(payload, d.Path)
			payload = wire.AppendUvarint(payload, uint64(len(d.Tokens)))
			for _, tok := range d.Tokens {
				payload = wire.AppendString(payload, tok)
			}
		}
		sealed := wire.SealImage(wire.SearchMagic, payload)
		wire.PutBuf(payload)
		return sealed, nil
	}
}

// decodeSidecar parses a sidecar image.
func decodeSidecar(sidecar []byte) (map[string]*doc, error) {
	payload, err := wire.OpenImage(wire.SearchMagic, sidecar)
	if err != nil {
		return nil, fmt.Errorf("search: decoding sidecar: %w", err)
	}
	r := wire.NewReader(payload)
	n := r.Count()
	docs := make(map[string]*doc, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		key := r.String()
		d := &doc{Kind: r.String(), URL: r.String(), Path: r.String()}
		ntok := r.Count()
		d.Tokens = make([]string, 0, ntok)
		for j := 0; j < ntok && r.Err() == nil; j++ {
			d.Tokens = append(d.Tokens, r.String())
		}
		docs[key] = d
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("search: corrupt sidecar: %w", r.Err())
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("search: corrupt sidecar: %d trailing bytes", r.Len())
	}
	return docs, nil
}

// RecoverCheckpoint restores the index after a relational recovery.
// The sidecar is trusted only when it exists, decodes, no WAL tail
// transactions were replayed on top of the snapshot it was captured
// with, and its document count matches the restored content rows;
// any mismatch falls back to a full rebuild from the relational
// tables. A missing sidecar (nil) — the disk state a crash between
// the snapshot install and the sidecar install leaves behind — always
// rebuilds. Every index maintenance path runs as a commit-atomic hook
// (relstore.ApplyThen/CommitThen), so a capture can never observe a
// committed-but-unindexed write; the count check is defense in depth
// against sidecars from foreign or hand-edited directories.
func (ix *Index) RecoverCheckpoint(sidecar []byte, rel *relstore.DB, tailApplied int) error {
	if sidecar != nil && tailApplied == 0 {
		if docs, err := decodeSidecar(sidecar); err == nil {
			if len(docs) == contentRows(rel) {
				ix.install(docs)
				return nil
			}
		}
	}
	return ix.Rebuild(rel)
}

// contentRows counts the relational rows the index mirrors (-1 on a
// store without the schema, which never matches a sidecar).
func contentRows(rel *relstore.DB) int {
	total := 0
	for _, table := range []string{schema.TableScripts, schema.TableHTMLFiles, schema.TableProgFiles} {
		n, err := rel.Count(table)
		if err != nil {
			return -1
		}
		total += n
	}
	return total
}

// install replaces the index contents with restored documents,
// re-deriving the postings from the token streams.
func (ix *Index) install(docs map[string]*doc) {
	ix.mu.Lock()
	ix.docs = make(map[string]*doc)
	ix.post = make(map[string]map[string][]int32)
	ix.byURL = make(map[string]map[string]bool)
	ix.mu.Unlock()
	for _, d := range docs {
		ix.add(d.Kind, d.URL, d.Path, d.Tokens)
	}
}

// Rebuild re-derives the whole index from the relational content
// tables: every script's catalog metadata, every HTML file's visible
// text and every program source.
func (ix *Index) Rebuild(rel *relstore.DB) error {
	ix.install(nil)
	err := rel.Scan(schema.TableScripts, func(r relstore.Row) bool {
		name, _ := r["script_name"].(string)
		desc, _ := r["description"].(string)
		author, _ := r["author"].(string)
		kw, _ := r["keywords"].(string)
		ix.IndexScript(name, desc, author, schema.SplitList(kw))
		return true
	})
	if err != nil {
		return fmt.Errorf("search: rebuilding from scripts: %w", err)
	}
	err = rel.Scan(schema.TableHTMLFiles, func(r relstore.Row) bool {
		url, _ := r["starting_url"].(string)
		path, _ := r["path"].(string)
		content, _ := r["content"].([]byte)
		ix.IndexHTML(url, path, content)
		return true
	})
	if err != nil {
		return fmt.Errorf("search: rebuilding from html files: %w", err)
	}
	err = rel.Scan(schema.TableProgFiles, func(r relstore.Row) bool {
		url, _ := r["starting_url"].(string)
		path, _ := r["path"].(string)
		lang, _ := r["language"].(string)
		content, _ := r["content"].([]byte)
		ix.IndexProgram(url, path, lang, content)
		return true
	})
	if err != nil {
		return fmt.Errorf("search: rebuilding from program files: %w", err)
	}
	return nil
}

// Attach builds a content index over a document store: the index is
// seeded from whatever content the store already holds, then docdb
// keeps it current through its write hooks, persists it beside every
// checkpoint and recovers it (sidecar or rebuild) on restart. Attach
// before the store serves traffic and before Recover, so a recovery
// can restore the index alongside the rows.
func Attach(store *docdb.Store) (*Index, error) {
	ix := NewIndex()
	if err := ix.Rebuild(store.Rel()); err != nil {
		return nil, err
	}
	if err := store.SetContentIndex(ix); err != nil {
		return nil, err
	}
	return ix, nil
}
