// Package docdb implements the Web document database of the paper on top
// of the relational engine (relstore) and the BLOB layer (blob): the
// document-layer objects of section 3 (scripts, implementations, test
// records, bug reports, annotations, HTML and program files), the
// software-configuration-management check-in/check-out of course
// components, and the class / instance / reference object forms with
// prototype-based reuse described in section 4.
//
// Every document operation is one transaction, one WAL record: it
// queues its rows on one relstore.Batch and commits through
// Store.commit, so a crash leaves it wholly on disk or not at all.
// Single-row writes commit directly; the check-out ledger and
// ReplaceAnnotation, which read before they write, run in a relstore.Tx.
//
// A durable store (persist.go) checkpoints the relational engine and
// the BLOB layer as one generation: the blobs-<gen> sidecar lands
// before relstore's snap-<gen>. Recover lets relstore load and replay
// first, then restores the index of the sidecar of the generation
// relstore loaded — each medium is read from the sidecar and checked
// against its content hash on its first read, not at recovery —
// re-derives each BLOB's reference count from the rows naming it, and
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

// commit applies b as one transaction, one WAL record. taken are the
// BLOB references acquired for b's rows: a batch that fails releases
// them, so a failed operation leaves no reference behind. drop are the
// references b's deletes end: released once b commits. index, when not
// nil, runs with the attached content index inside the commit, before
// the touched tables' locks release, so concurrent writes of one
// document reach the index in commit order.
func (s *Store) commit(b *relstore.Batch, taken, drop []blob.Ref, index func(ContentIndex)) error {
	err := s.rel.ApplyThen(b, func() {
		if ix := s.ContentIndex(); ix != nil && index != nil {
			index(ix)
		}
	})
	if err != nil {
		s.releaseAll(taken)
		return err
	}
	s.releaseAll(drop)
	return nil
}

// releaseAll drops one reference on each of refs. An object already
// gone is the loss a crash leaves for bytes never checkpointed, and
// there is nothing left to release.
func (s *Store) releaseAll(refs []blob.Ref) {
	for _, ref := range refs {
		s.blobs.Release(ref)
	}
}

// indexScript is the index hook of a batch that creates (or imports)
// sc.
func indexScript(sc Script) func(ContentIndex) {
	return func(ix ContentIndex) { ix.IndexScript(sc.Name, sc.Description, sc.Author, sc.Keywords) }
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

// idColumns are the primary-key columns that hold identifiers nextID
// generated.
var idColumns = []struct{ table, column string }{
	{schema.TableCheckouts, "co_id"},
	{schema.TableVersions, "ver_id"},
	{schema.TableImplMedia, "res_id"},
	{schema.TableScriptMedia, "res_id"},
	{schema.TableDocObjects, "obj_id"},
}

// SyncIDs advances the ID counter past every generated identifier
// already present in the engine. Call it after restoring state from a
// WAL or snapshot, where the rows survive but the process-local counter
// restarts at zero; without it freshly generated IDs collide with
// restored primary keys. It reads only the ID columns, building no
// row.
func (s *Store) SyncIDs() error {
	var max uint64
	for _, c := range idColumns {
		err := s.rel.ScanColumn(c.table, c.column, func(v any) bool {
			id, _ := v.(string)
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
	return s.rel.Insert(schema.TableDatabases, s.databaseRow(d))
}

// databaseRow is the databases row recording d, created now.
func (s *Store) databaseRow(d Database) relstore.Row {
	if d.Version == 0 {
		d.Version = 1
	}
	return relstore.Row{
		"db_name":  d.Name,
		"keywords": schema.JoinList(d.Keywords),
		"author":   d.Author,
		"version":  d.Version,
		"created":  s.Now(),
	}
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
	var b relstore.Batch
	b.Insert(schema.TableScripts, s.scriptRow(sc))
	return s.commit(&b, nil, nil, indexScript(sc))
}

// scriptRow is the scripts row recording sc, created now.
func (s *Store) scriptRow(sc Script) relstore.Row {
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
	return row
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
	return s.rel.Insert(schema.TableImpls, s.implRow(im))
}

// implRow is the implementations row recording im, created now.
func (s *Store) implRow(im Implementation) relstore.Row {
	return relstore.Row{
		"starting_url": im.StartingURL,
		"script_name":  im.ScriptName,
		"author":       im.Author,
		"created":      s.Now(),
	}
}

// Implementation fetches one implementation by starting URL.
func (s *Store) Implementation(url string) (Implementation, error) {
	row, err := s.rel.Get(schema.TableImpls, url)
	if err != nil {
		return Implementation{}, err
	}
	return implFromRow(row), nil
}

// Implementations lists the tries recorded for a script.
func (s *Store) Implementations(scriptName string) ([]Implementation, error) {
	rows, err := s.rel.Lookup(schema.TableImpls, "script_name", scriptName)
	if err != nil {
		return nil, err
	}
	out := make([]Implementation, len(rows))
	for i, r := range rows {
		out[i] = implFromRow(r)
	}
	return out, nil
}

func implFromRow(r relstore.Row) Implementation {
	return Implementation{
		StartingURL: rowString(r, "starting_url"),
		ScriptName:  rowString(r, "script_name"),
		Author:      rowString(r, "author"),
		Created:     rowTime(r, "created"),
	}
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

// queueFile queues f as one of url's files in table (html_files or
// program_files): an insert, or a replacement of an existing file's
// content. It is the single place the file row shape lives.
func (s *Store) queueFile(b *relstore.Batch, table, url string, f File) {
	id := fileID(url, f.Path)
	row := relstore.Row{"content": f.Content}
	if table == schema.TableProgFiles {
		row["language"] = f.Language
	}
	if s.rel.Exists(table, id) {
		b.Update(table, id, row)
		return
	}
	row["file_id"], row["starting_url"], row["path"] = id, url, f.Path
	b.Insert(table, row)
}

// queueFiles queues url's HTML files html and program files progs.
func (s *Store) queueFiles(b *relstore.Batch, url string, html, progs []File) {
	for _, f := range html {
		s.queueFile(b, schema.TableHTMLFiles, url, f)
	}
	for _, f := range progs {
		s.queueFile(b, schema.TableProgFiles, url, f)
	}
}

// indexFiles tells ix about the HTML and program files a batch wrote
// under url.
func indexFiles(ix ContentIndex, url string, html, progs []File) {
	for _, f := range html {
		ix.IndexHTML(url, f.Path, f.Content)
	}
	for _, f := range progs {
		ix.IndexProgram(url, f.Path, f.Language, f.Content)
	}
}

// PutHTML stores (or replaces) an HTML file of an implementation.
func (s *Store) PutHTML(url, path string, content []byte) error {
	return s.putFiles(url, []File{{Path: path, Content: content}}, nil)
}

// PutProgram stores (or replaces) an add-on control program file.
func (s *Store) PutProgram(url, path, language string, content []byte) error {
	return s.putFiles(url, nil, []File{{Path: path, Language: language, Content: content}})
}

// putFiles stores html and progs as url's files in one commit.
func (s *Store) putFiles(url string, html, progs []File) error {
	var b relstore.Batch
	s.queueFiles(&b, url, html, progs)
	return s.commit(&b, nil, nil, func(ix ContentIndex) { indexFiles(ix, url, html, progs) })
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
	return s.files(schema.TableHTMLFiles, url)
}

// ProgramFiles lists the program files of an implementation.
func (s *Store) ProgramFiles(url string) ([]File, error) {
	return s.files(schema.TableProgFiles, url)
}

// files lists url's files in table (html_files or program_files).
func (s *Store) files(table, url string) ([]File, error) {
	rows, err := s.rel.Lookup(table, "starting_url", url)
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

// ownerColumn names the column of a media table (impl_media or
// script_media) that holds the owner.
func ownerColumn(table string) string {
	if table == schema.TableScriptMedia {
		return "script_name"
	}
	return "starting_url"
}

// mediaRow is the row of a media table recording m.
func mediaRow(table string, m MediaRef) relstore.Row {
	return relstore.Row{
		"res_id":           m.ResID,
		ownerColumn(table): m.Owner,
		"name":             m.Name,
		"kind":             int64(m.Kind),
		"blob_hash":        m.Ref.Hash,
		"size":             m.Ref.Size,
	}
}

// blobRef is the BLOB a media row names.
func blobRef(r relstore.Row) blob.Ref {
	return blob.Ref{Hash: rowString(r, "blob_hash"), Size: rowInt(r, "size"), Kind: blob.Kind(rowInt(r, "kind"))}
}

// AttachImplMedia stores a multimedia resource in the BLOB layer and
// records the implementation's descriptor. Identical content already on
// the station is shared, not duplicated.
func (s *Store) AttachImplMedia(url, name string, kind blob.Kind, data []byte) (MediaRef, error) {
	return s.attachMedia(schema.TableImplMedia, url, name, kind, data)
}

// AttachScriptMedia stores a script-level resource (e.g. the verbal
// description of section 3).
func (s *Store) AttachScriptMedia(scriptName, name string, kind blob.Kind, data []byte) (MediaRef, error) {
	return s.attachMedia(schema.TableScriptMedia, scriptName, name, kind, data)
}

// attachMedia puts data in the BLOB layer and records it in a media
// table under owner.
func (s *Store) attachMedia(table, owner, name string, kind blob.Kind, data []byte) (MediaRef, error) {
	ref := s.blobs.Put(name, kind, data)
	m := MediaRef{ResID: s.nextID("res"), Owner: owner, Name: name, Kind: kind, Ref: ref}
	var b relstore.Batch
	b.Insert(table, mediaRow(table, m))
	return m, s.commit(&b, []blob.Ref{ref}, nil, nil)
}

// ImplMedia lists the media descriptors of an implementation.
func (s *Store) ImplMedia(url string) ([]MediaRef, error) {
	return s.media(schema.TableImplMedia, url)
}

// ScriptMedia lists the media descriptors of a script.
func (s *Store) ScriptMedia(scriptName string) ([]MediaRef, error) {
	return s.media(schema.TableScriptMedia, scriptName)
}

// media lists the descriptors a media table holds for owner.
func (s *Store) media(table, owner string) ([]MediaRef, error) {
	col := ownerColumn(table)
	rows, err := s.rel.Lookup(table, col, owner)
	if err != nil {
		return nil, err
	}
	out := make([]MediaRef, len(rows))
	for i, r := range rows {
		ref := blobRef(r)
		out[i] = MediaRef{ResID: rowString(r, "res_id"), Owner: rowString(r, col), Name: rowString(r, "name"), Kind: ref.Kind, Ref: ref}
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
