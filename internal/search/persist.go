package search

import (
	"fmt"

	"repro/internal/docdb"
	"repro/internal/relstore"
	"repro/internal/schema"
)

// The index is a cache over the relational content tables and is never
// written to disk: a station rebuilds it from the rows whenever it
// starts, with one scan of the content tables.

// Rebuild replaces the index contents with what the relational content
// tables hold: every script's catalog metadata, every HTML file's
// visible text and every program source.
func (ix *Index) Rebuild(rel *relstore.DB) error {
	ix.mu.Lock()
	ix.docs = make(map[string]*doc)
	ix.post = make(map[string]map[string][]int32)
	ix.byURL = make(map[string]map[string]bool)
	ix.mu.Unlock()
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

// RecoverCheckpoint is Rebuild under the name the benchmark harness
// still calls; it ignores its sidecar and tail arguments.
//
// Deprecated: use Rebuild. The next benchmark change switches bench/
// to Rebuild and deletes this method.
func (ix *Index) RecoverCheckpoint(_ []byte, rel *relstore.DB, _ int) error {
	return ix.Rebuild(rel)
}

// Attach builds a content index over a document store: the index is
// seeded from whatever content the store already holds, then docdb
// keeps it current through its write hooks and rebuilds it after
// Recover. Attach before the store serves traffic and before Recover.
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
