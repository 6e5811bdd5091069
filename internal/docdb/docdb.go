// Package docdb implements the Web document database of the paper on top
// of the relational engine (relstore) and the BLOB layer (blob): the
// document-layer objects of section 3 (scripts, implementations, test
// records, bug reports, annotations, HTML and program files), the
// software-configuration-management check-in/check-out of course
// components, and the class / instance / reference object forms with
// prototype-based reuse described in section 4.
//
// A durable store (persist.go) checkpoints the relational engine and
// the BLOB layer as one generation: the blobs-<gen> sidecar lands
// before relstore's snap-<gen>. Recover lets relstore load and replay
// first, then restores the sidecar of the generation relstore loaded,
// checking every content hash before the BLOB store changes, and
// rebuilds the attached content index from the rows.
package docdb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/relstore"
	"repro/internal/schema"
)

// Store errors.
var (
	ErrCheckedOut    = errors.New("docdb: object is already checked out")
	ErrNotCheckedOut = errors.New("docdb: object is not checked out")
	ErrWrongForm     = errors.New("docdb: object has the wrong form for this operation")
	ErrNotResident   = errors.New("docdb: document content is not resident on this station")
)

// Store is one workstation's Web document database.
type Store struct {
	rel   *relstore.DB
	blobs *blob.Store
	seq   atomic.Uint64

	// idx holds the attached ContentIndex (nil until SetContentIndex).
	idx atomic.Value

	// durDir is the durability directory Recover attached ("" for an
	// in-memory store); set once at startup, before the store serves.
	durDir string

	// Now supplies timestamps; replace it in tests for determinism.
	Now func() time.Time
}

// ContentIndex is the full-text hook surface a station's search index
// (internal/search) implements. The store notifies it after every
// committed content write — PutHTML/PutProgram, bundle and reference
// imports, the structure copies behind Instantiate, and the drops
// behind migration and deletes — and Recover calls Rebuild once the
// rows are back. The index is a cache: it is never checkpointed, it
// must be safe for concurrent use, and it must never fail a write.
type ContentIndex interface {
	IndexHTML(url, path string, content []byte)
	IndexProgram(url, path, language string, content []byte)
	IndexScript(name, description, author string, keywords []string)
	RemoveContent(url string)
	RemoveScript(name string)
	Rebuild(rel *relstore.DB) error
}

// SetContentIndex attaches the station's content index. Attach once,
// before the store serves traffic and before Recover (so recovery
// rebuilds the index from the rows it restores).
func (s *Store) SetContentIndex(ix ContentIndex) error {
	if ix == nil {
		return errors.New("docdb: nil content index")
	}
	if !s.idx.CompareAndSwap(nil, ix) {
		return errors.New("docdb: content index already attached")
	}
	return nil
}

// ContentIndex returns the attached content index, nil when none.
func (s *Store) ContentIndex() ContentIndex {
	ix, _ := s.idx.Load().(ContentIndex)
	return ix
}

// noteScript tells the index about a created (or imported) script.
// Call it from a CommitThen/ApplyThen hook, so the indexing is atomic
// with the commit.
func (s *Store) noteScript(sc Script) {
	if ix := s.ContentIndex(); ix != nil {
		ix.IndexScript(sc.Name, sc.Description, sc.Author, sc.Keywords)
	}
}

// Open wires a document store over a relational engine and a BLOB
// store, installing the schema when the engine is empty.
func Open(rel *relstore.DB, blobs *blob.Store) (*Store, error) {
	installed := false
	for _, t := range rel.Tables() {
		if t == schema.TableScripts {
			installed = true
			break
		}
	}
	if !installed {
		if err := schema.Create(rel); err != nil {
			return nil, err
		}
	}
	return &Store{rel: rel, blobs: blobs, Now: time.Now}, nil
}

// Rel exposes the underlying relational engine (for the SQL front end).
func (s *Store) Rel() *relstore.DB { return s.rel }

// Blobs exposes the underlying BLOB store.
func (s *Store) Blobs() *blob.Store { return s.blobs }

// nextID generates a process-unique identifier with a kind prefix.
func (s *Store) nextID(prefix string) string {
	return fmt.Sprintf("%s-%06d", prefix, s.seq.Add(1))
}

// NewID generates a store-unique identifier with the given prefix, for
// subsystems (like the virtual library) that keep their own rows in the
// shared tables.
func (s *Store) NewID(prefix string) string { return s.nextID(prefix) }

// SyncIDs advances the ID counter past every generated identifier
// already present in the engine. Call it after restoring state from a
// WAL or snapshot, where the rows survive but the process-local counter
// restarts at zero; without it freshly generated IDs collide with
// restored primary keys.
func (s *Store) SyncIDs() error {
	var max uint64
	for table, pkCol := range map[string]string{
		schema.TableCheckouts:   "co_id",
		schema.TableVersions:    "ver_id",
		schema.TableImplMedia:   "res_id",
		schema.TableScriptMedia: "res_id",
		schema.TableDocObjects:  "obj_id",
	} {
		err := s.rel.Scan(table, func(r relstore.Row) bool {
			id := rowString(r, pkCol)
			if i := strings.LastIndexByte(id, '-'); i >= 0 {
				if n, err := strconv.ParseUint(id[i+1:], 10, 64); err == nil && n > max {
					max = n
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	for {
		cur := s.seq.Load()
		if cur >= max || s.seq.CompareAndSwap(cur, max) {
			return nil
		}
	}
}

// Database is a Database-layer object.
type Database struct {
	Name     string
	Keywords []string
	Author   string
	Version  int64
	Created  time.Time
}

// CreateDatabase registers a new course database.
func (s *Store) CreateDatabase(d Database) error {
	if d.Version == 0 {
		d.Version = 1
	}
	return s.rel.Insert(schema.TableDatabases, relstore.Row{
		"db_name":  d.Name,
		"keywords": schema.JoinList(d.Keywords),
		"author":   d.Author,
		"version":  d.Version,
		"created":  s.Now(),
	})
}

// Database fetches a Database-layer object.
func (s *Store) Database(name string) (Database, error) {
	row, err := s.rel.Get(schema.TableDatabases, name)
	if err != nil {
		return Database{}, err
	}
	return Database{
		Name:     rowString(row, "db_name"),
		Keywords: schema.SplitList(rowString(row, "keywords")),
		Author:   rowString(row, "author"),
		Version:  rowInt(row, "version"),
		Created:  rowTime(row, "created"),
	}, nil
}

// Script is a Script-table object: the specification of one Web
// document (course material or quiz).
type Script struct {
	Name               string
	DBName             string
	Keywords           []string
	Author             string
	Version            int64
	Created            time.Time
	Description        string
	ExpectedCompletion time.Time
	PctComplete        float64
}

// CreateScript stores a new script under its database.
func (s *Store) CreateScript(sc Script) error {
	if sc.Version == 0 {
		sc.Version = 1
	}
	row := relstore.Row{
		"script_name":  sc.Name,
		"db_name":      sc.DBName,
		"keywords":     schema.JoinList(sc.Keywords),
		"author":       sc.Author,
		"version":      sc.Version,
		"created":      s.Now(),
		"description":  sc.Description,
		"pct_complete": sc.PctComplete,
	}
	if !sc.ExpectedCompletion.IsZero() {
		row["expected_completion"] = sc.ExpectedCompletion
	}
	// One-row batch for the commit-atomic index hook (see PutHTML).
	var b relstore.Batch
	b.Insert(schema.TableScripts, row)
	return s.rel.ApplyThen(&b, func() { s.noteScript(sc) })
}

// Script fetches one script by name.
func (s *Store) Script(name string) (Script, error) {
	row, err := s.rel.Get(schema.TableScripts, name)
	if err != nil {
		return Script{}, err
	}
	return scriptFromRow(row), nil
}

func scriptFromRow(row relstore.Row) Script {
	return Script{
		Name:               rowString(row, "script_name"),
		DBName:             rowString(row, "db_name"),
		Keywords:           schema.SplitList(rowString(row, "keywords")),
		Author:             rowString(row, "author"),
		Version:            rowInt(row, "version"),
		Created:            rowTime(row, "created"),
		Description:        rowString(row, "description"),
		ExpectedCompletion: rowTime(row, "expected_completion"),
		PctComplete:        rowFloat(row, "pct_complete"),
	}
}

// Scripts lists the scripts of a database in name order.
func (s *Store) Scripts(dbName string) ([]Script, error) {
	rows, err := s.rel.Lookup(schema.TableScripts, "db_name", dbName)
	if err != nil {
		return nil, err
	}
	out := make([]Script, len(rows))
	for i, r := range rows {
		out[i] = scriptFromRow(r)
	}
	return out, nil
}

// SetProgress updates the percentage-of-completion status attribute.
func (s *Store) SetProgress(scriptName string, pct float64) error {
	return s.rel.Update(schema.TableScripts, scriptName, relstore.Row{"pct_complete": pct})
}

// Implementation is an Implementation-table object: one try of
// implementing a script, identified by its starting URL.
type Implementation struct {
	StartingURL string
	ScriptName  string
	Author      string
	Created     time.Time
}

// AddImplementation stores a new implementation of a script.
func (s *Store) AddImplementation(im Implementation) error {
	return s.rel.Insert(schema.TableImpls, relstore.Row{
		"starting_url": im.StartingURL,
		"script_name":  im.ScriptName,
		"author":       im.Author,
		"created":      s.Now(),
	})
}

// Implementation fetches one implementation by starting URL.
func (s *Store) Implementation(url string) (Implementation, error) {
	row, err := s.rel.Get(schema.TableImpls, url)
	if err != nil {
		return Implementation{}, err
	}
	return Implementation{
		StartingURL: rowString(row, "starting_url"),
		ScriptName:  rowString(row, "script_name"),
		Author:      rowString(row, "author"),
		Created:     rowTime(row, "created"),
	}, nil
}

// Implementations lists the tries recorded for a script.
func (s *Store) Implementations(scriptName string) ([]Implementation, error) {
	rows, err := s.rel.Lookup(schema.TableImpls, "script_name", scriptName)
	if err != nil {
		return nil, err
	}
	out := make([]Implementation, len(rows))
	for i, r := range rows {
		out[i] = Implementation{
			StartingURL: rowString(r, "starting_url"),
			ScriptName:  rowString(r, "script_name"),
			Author:      rowString(r, "author"),
			Created:     rowTime(r, "created"),
		}
	}
	return out, nil
}

// File is an HTML or program file belonging to an implementation.
type File struct {
	ID          string
	StartingURL string
	Path        string
	Language    string // program files only
	Content     []byte
}

func fileID(url, path string) string { return url + "#" + path }

// queueHTML appends an insert-or-replace of one HTML file row to the
// batch; it is the single place the html_files row shape lives.
func (s *Store) queueHTML(b *relstore.Batch, url, path string, content []byte) {
	id := fileID(url, path)
	if s.rel.Exists(schema.TableHTMLFiles, id) {
		b.Update(schema.TableHTMLFiles, id, relstore.Row{"content": content})
		return
	}
	b.Insert(schema.TableHTMLFiles, relstore.Row{
		"file_id":      id,
		"starting_url": url,
		"path":         path,
		"content":      content,
	})
}

// queueProgram is queueHTML's counterpart for program files.
func (s *Store) queueProgram(b *relstore.Batch, url, path, language string, content []byte) {
	id := fileID(url, path)
	if s.rel.Exists(schema.TableProgFiles, id) {
		b.Update(schema.TableProgFiles, id, relstore.Row{"content": content, "language": language})
		return
	}
	b.Insert(schema.TableProgFiles, relstore.Row{
		"file_id":      id,
		"starting_url": url,
		"path":         path,
		"language":     language,
		"content":      content,
	})
}

// PutHTML stores (or replaces) an HTML file of an implementation. The
// content-index hook runs inside the commit (before the file tables'
// locks release), so concurrent writes of one file index in commit
// order.
func (s *Store) PutHTML(url, path string, content []byte) error {
	var b relstore.Batch
	s.queueHTML(&b, url, path, content)
	return s.rel.ApplyThen(&b, func() {
		if ix := s.ContentIndex(); ix != nil {
			ix.IndexHTML(url, path, content)
		}
	})
}

// HTML fetches the content of one HTML file.
func (s *Store) HTML(url, path string) ([]byte, error) {
	row, err := s.rel.Get(schema.TableHTMLFiles, fileID(url, path))
	if err != nil {
		return nil, err
	}
	b, _ := row["content"].([]byte)
	return b, nil
}

// HTMLFiles lists the HTML files of an implementation in path order.
func (s *Store) HTMLFiles(url string) ([]File, error) {
	rows, err := s.rel.Lookup(schema.TableHTMLFiles, "starting_url", url)
	if err != nil {
		return nil, err
	}
	out := make([]File, len(rows))
	for i, r := range rows {
		c, _ := r["content"].([]byte)
		out[i] = File{
			ID:          rowString(r, "file_id"),
			StartingURL: rowString(r, "starting_url"),
			Path:        rowString(r, "path"),
			Content:     c,
		}
	}
	return out, nil
}

// PutProgram stores (or replaces) an add-on control program file, with
// the same commit-atomic index hook as PutHTML.
func (s *Store) PutProgram(url, path, language string, content []byte) error {
	var b relstore.Batch
	s.queueProgram(&b, url, path, language, content)
	return s.rel.ApplyThen(&b, func() {
		if ix := s.ContentIndex(); ix != nil {
			ix.IndexProgram(url, path, language, content)
		}
	})
}

// ProgramFiles lists the program files of an implementation.
func (s *Store) ProgramFiles(url string) ([]File, error) {
	rows, err := s.rel.Lookup(schema.TableProgFiles, "starting_url", url)
	if err != nil {
		return nil, err
	}
	out := make([]File, len(rows))
	for i, r := range rows {
		c, _ := r["content"].([]byte)
		out[i] = File{
			ID:          rowString(r, "file_id"),
			StartingURL: rowString(r, "starting_url"),
			Path:        rowString(r, "path"),
			Language:    rowString(r, "language"),
			Content:     c,
		}
	}
	return out, nil
}

// MediaRef is a document-layer file descriptor pointing at a BLOB-layer
// resource.
type MediaRef struct {
	ResID string
	Owner string // script name or starting URL
	Name  string
	Kind  blob.Kind
	Ref   blob.Ref
}

// implMediaRow is the impl_media row recording m, whose Owner is an
// implementation's starting URL.
func implMediaRow(m MediaRef) relstore.Row {
	return relstore.Row{
		"res_id":       m.ResID,
		"starting_url": m.Owner,
		"name":         m.Name,
		"kind":         int64(m.Kind),
		"blob_hash":    m.Ref.Hash,
		"size":         m.Ref.Size,
	}
}

// AttachImplMedia stores a multimedia resource in the BLOB layer and
// records the implementation's descriptor. Identical content already on
// the station is shared, not duplicated.
func (s *Store) AttachImplMedia(url, name string, kind blob.Kind, data []byte) (MediaRef, error) {
	ref := s.blobs.Put(name, kind, data)
	m := MediaRef{ResID: s.nextID("res"), Owner: url, Name: name, Kind: kind, Ref: ref}
	if err := s.rel.Insert(schema.TableImplMedia, implMediaRow(m)); err != nil {
		s.blobs.Release(ref)
		return MediaRef{}, err
	}
	return m, nil
}

// ShareImplMedia attaches an already-resident BLOB to another
// implementation without copying bytes (BLOB-layer sharing of section
// 4).
func (s *Store) ShareImplMedia(url, name string, ref blob.Ref) (MediaRef, error) {
	if err := s.blobs.Retain(ref); err != nil {
		return MediaRef{}, err
	}
	m := MediaRef{ResID: s.nextID("res"), Owner: url, Name: name, Kind: ref.Kind, Ref: ref}
	if err := s.rel.Insert(schema.TableImplMedia, implMediaRow(m)); err != nil {
		s.blobs.Release(ref)
		return MediaRef{}, err
	}
	return m, nil
}

// AttachScriptMedia stores a script-level resource (e.g. the verbal
// description of section 3).
func (s *Store) AttachScriptMedia(scriptName, name string, kind blob.Kind, data []byte) (MediaRef, error) {
	ref := s.blobs.Put(name, kind, data)
	m := MediaRef{ResID: s.nextID("res"), Owner: scriptName, Name: name, Kind: kind, Ref: ref}
	err := s.rel.Insert(schema.TableScriptMedia, relstore.Row{
		"res_id":      m.ResID,
		"script_name": scriptName,
		"name":        name,
		"kind":        int64(kind),
		"blob_hash":   ref.Hash,
		"size":        ref.Size,
	})
	if err != nil {
		s.blobs.Release(ref)
		return MediaRef{}, err
	}
	return m, nil
}

// ImplMedia lists the media descriptors of an implementation.
func (s *Store) ImplMedia(url string) ([]MediaRef, error) {
	rows, err := s.rel.Lookup(schema.TableImplMedia, "starting_url", url)
	if err != nil {
		return nil, err
	}
	out := make([]MediaRef, len(rows))
	for i, r := range rows {
		out[i] = MediaRef{
			ResID: rowString(r, "res_id"),
			Owner: rowString(r, "starting_url"),
			Name:  rowString(r, "name"),
			Kind:  blob.Kind(rowInt(r, "kind")),
			Ref:   blob.Ref{Hash: rowString(r, "blob_hash"), Size: rowInt(r, "size"), Kind: blob.Kind(rowInt(r, "kind"))},
		}
	}
	return out, nil
}

// ScriptMedia lists the media descriptors of a script.
func (s *Store) ScriptMedia(scriptName string) ([]MediaRef, error) {
	rows, err := s.rel.Lookup(schema.TableScriptMedia, "script_name", scriptName)
	if err != nil {
		return nil, err
	}
	out := make([]MediaRef, len(rows))
	for i, r := range rows {
		out[i] = MediaRef{
			ResID: rowString(r, "res_id"),
			Owner: rowString(r, "script_name"),
			Name:  rowString(r, "name"),
			Kind:  blob.Kind(rowInt(r, "kind")),
			Ref:   blob.Ref{Hash: rowString(r, "blob_hash"), Size: rowInt(r, "size"), Kind: blob.Kind(rowInt(r, "kind"))},
		}
	}
	return out, nil
}

// row accessors tolerate NULLs.
func rowString(r relstore.Row, col string) string {
	s, _ := r[col].(string)
	return s
}

func rowInt(r relstore.Row, col string) int64 {
	n, _ := r[col].(int64)
	return n
}

func rowFloat(r relstore.Row, col string) float64 {
	f, _ := r[col].(float64)
	return f
}

func rowTime(r relstore.Row, col string) time.Time {
	t, _ := r[col].(time.Time)
	return t
}

func rowBool(r relstore.Row, col string) bool {
	b, _ := r[col].(bool)
	return b
}
