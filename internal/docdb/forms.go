package docdb

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/blob"
	"repro/internal/relstore"
	"repro/internal/schema"
)

// DocObject is one Web Document object form of section 4: a class (a
// reusable template owning the physical BLOBs), an instance (a physical
// element of a Web document), or a reference to an instance held on
// another station.
type DocObject struct {
	ID          string
	Form        string // schema.FormClass | FormInstance | FormReference
	StartingURL string
	Station     int64 // station holding this object
	Origin      int64 // for references: station holding the instance
	ClassID     string
	Persistent  bool // instructor-station objects persist; student copies are buffers
	Created     time.Time
}

func objectFromRow(r relstore.Row) DocObject {
	return DocObject{
		ID:          rowString(r, "obj_id"),
		Form:        rowString(r, "form"),
		StartingURL: rowString(r, "starting_url"),
		Station:     rowInt(r, "station"),
		Origin:      rowInt(r, "origin"),
		ClassID:     rowString(r, "class_id"),
		Persistent:  rowBool(r, "persistent"),
		Created:     rowTime(r, "created"),
	}
}

// NewInstance records that this station holds a physical instance of
// the implementation.
func (s *Store) NewInstance(url string, station int, persistent bool) (DocObject, error) {
	obj := s.newObject(schema.FormInstance, url, station, station)
	obj.Persistent = persistent
	return obj, s.insertObject(obj)
}

// newObject is a fresh document object of a form for url, held at
// station; origin is the station holding the instance.
func (s *Store) newObject(form, url string, station, origin int) DocObject {
	return DocObject{ID: s.nextID("obj"), Form: form, StartingURL: url, Station: int64(station), Origin: int64(origin)}
}

// MakeReference records a reference-to-instance: a mirror entry telling
// this station where the physical instance lives. References are what
// the paper broadcasts to remote stations when an instance is created.
//
//lint:ignore unreached paper section 4: the reference-to-instance object form
func (s *Store) MakeReference(url string, station, origin int) (DocObject, error) {
	obj := s.newObject(schema.FormReference, url, station, origin)
	return obj, s.insertObject(obj)
}

func (s *Store) insertObject(o DocObject) error {
	return s.rel.Insert(schema.TableDocObjects, s.objectRow(o))
}

// objectRow is the doc_objects row recording o, created now.
func (s *Store) objectRow(o DocObject) relstore.Row {
	return relstore.Row{
		"obj_id":       o.ID,
		"form":         o.Form,
		"starting_url": o.StartingURL,
		"station":      o.Station,
		"origin":       o.Origin,
		"class_id":     o.ClassID,
		"persistent":   o.Persistent,
		"created":      s.Now(),
	}
}

// Object fetches one document object by id.
func (s *Store) Object(id string) (DocObject, error) {
	row, err := s.rel.Get(schema.TableDocObjects, id)
	if err != nil {
		return DocObject{}, err
	}
	return objectFromRow(row), nil
}

// ObjectByURL returns the document object recorded for an
// implementation on this station, if any.
func (s *Store) ObjectByURL(url string) (DocObject, error) {
	rows, err := s.rel.Lookup(schema.TableDocObjects, "starting_url", url)
	if err != nil {
		return DocObject{}, err
	}
	if len(rows) == 0 {
		return DocObject{}, fmt.Errorf("%w: no object for %s", relstore.ErrNotFound, url)
	}
	return objectFromRow(rows[0]), nil
}

// DeclareClass turns an instance into a reusable class: the class
// object now owns the document structure and the physical BLOBs, while
// the original instance keeps its structure with pointers into the
// class (section 4). In the content-addressed BLOB layer the bytes were
// already shared; the class row transfers logical ownership.
func (s *Store) DeclareClass(instanceID string) (DocObject, error) {
	inst, err := s.Object(instanceID)
	if err != nil {
		return DocObject{}, err
	}
	if inst.Form != schema.FormInstance {
		return DocObject{}, fmt.Errorf("%w: %s is a %s", ErrWrongForm, instanceID, inst.Form)
	}
	class := s.newObject(schema.FormClass, inst.StartingURL, int(inst.Station), int(inst.Station))
	class.Persistent = true
	var b relstore.Batch
	b.Insert(schema.TableDocObjects, s.objectRow(class))
	b.Update(schema.TableDocObjects, instanceID, relstore.Row{"class_id": class.ID})
	return class, s.commit(&b, nil, nil, nil)
}

// Instantiate creates a new document instance from a class: the class's
// structure (HTML and program files) is copied to the new starting URL
// and pointers to the class's multimedia data are created — no BLOB
// bytes are duplicated (prototype reuse of section 4).
//
//lint:ignore unreached paper section 4: a new instance from a class, by prototype reuse
func (s *Store) Instantiate(classID, newURL string, station int) (DocObject, error) {
	class, err := s.Object(classID)
	if err != nil {
		return DocObject{}, err
	}
	if class.Form != schema.FormClass {
		return DocObject{}, fmt.Errorf("%w: %s is a %s", ErrWrongForm, classID, class.Form)
	}
	src, err := s.Implementation(class.StartingURL)
	if err != nil {
		return DocObject{}, err
	}
	var b relstore.Batch
	taken, index, err := s.queueCopy(&b, src, newURL, src.Author)
	if err != nil {
		return DocObject{}, err
	}
	obj := s.newObject(schema.FormInstance, newURL, station, station)
	obj.ClassID = classID
	b.Insert(schema.TableDocObjects, s.objectRow(obj))
	return obj, s.commit(&b, taken, nil, index)
}

// DuplicateComponent duplicates a reusable compound object to a new
// starting URL with the document-layer files copied (they are
// "relatively smaller sizes, such as HTML files") and the BLOBs shared,
// exactly as section 3 prescribes.
//
//lint:ignore unreached paper section 3: duplicating a reusable compound object with its BLOBs shared
func (s *Store) DuplicateComponent(url, newURL, author string) error {
	src, err := s.Implementation(url)
	if err != nil {
		return err
	}
	var b relstore.Batch
	taken, index, err := s.queueCopy(&b, src, newURL, author)
	if err != nil {
		return err
	}
	return s.commit(&b, taken, nil, index)
}

// queueCopy queues a copy of src's structure under dstURL, by author:
// the implementation row, copies of its HTML and program files, and
// media rows sharing its BLOBs. It returns the BLOB references the
// media rows take, already held, and the index hook for the copied
// files.
func (s *Store) queueCopy(b *relstore.Batch, src Implementation, dstURL, author string) ([]blob.Ref, func(ContentIndex), error) {
	html, err := s.HTMLFiles(src.StartingURL)
	if err != nil {
		return nil, nil, err
	}
	progs, err := s.ProgramFiles(src.StartingURL)
	if err != nil {
		return nil, nil, err
	}
	media, err := s.ImplMedia(src.StartingURL)
	if err != nil {
		return nil, nil, err
	}
	b.Insert(schema.TableImpls, s.implRow(Implementation{StartingURL: dstURL, ScriptName: src.ScriptName, Author: author}))
	for _, files := range [][]File{html, progs} {
		for i := range files {
			files[i].Content = bytes.Clone(files[i].Content)
		}
	}
	s.queueFiles(b, dstURL, html, progs)
	taken := make([]blob.Ref, 0, len(media))
	for _, m := range media {
		if err := s.blobs.Retain(m.Ref); err != nil {
			s.releaseAll(taken)
			return nil, nil, fmt.Errorf("docdb: sharing medium %q of %s: %w", m.Name, src.StartingURL, err)
		}
		taken = append(taken, m.Ref)
		m.ResID, m.Owner = s.nextID("res"), dstURL
		b.Insert(schema.TableImplMedia, mediaRow(schema.TableImplMedia, m))
	}
	return taken, func(ix ContentIndex) { indexFiles(ix, dstURL, html, progs) }, nil
}

// queueScaffold queues the rows a document hangs off — its database,
// script and implementation — that this station lacks, and returns the
// index hook for them. A station that already holds all three queues
// nothing, so its import's batch locks none of their tables.
func (s *Store) queueScaffold(b *relstore.Batch, script Script, impl Implementation) (index func(ContentIndex)) {
	index = func(ContentIndex) {}
	if !s.rel.Exists(schema.TableDatabases, script.DBName) {
		b.Insert(schema.TableDatabases, s.databaseRow(Database{Name: script.DBName}))
	}
	if !s.rel.Exists(schema.TableScripts, script.Name) {
		b.Insert(schema.TableScripts, s.scriptRow(script))
		index = indexScript(script)
	}
	if !s.rel.Exists(schema.TableImpls, impl.StartingURL) {
		b.Insert(schema.TableImpls, s.implRow(impl))
	}
	return index
}

// retryDuplicate runs an import, and runs it once more if it lost a
// race for a scaffold row: imports of documents of one database (or of
// one document) may each find a row missing and queue it, and the one
// that commits second fails with relstore.ErrDuplicate. Its second
// attempt re-reads the rows and finds that one there.
func retryDuplicate(attempt func() (DocObject, error)) (DocObject, error) {
	obj, err := attempt()
	if errors.Is(err, relstore.ErrDuplicate) {
		obj, err = attempt()
	}
	return obj, err
}

// ImportReference installs the metadata scaffolding for a document
// whose physical instance lives on another station, plus a reference
// object pointing at the origin. This is what the paper broadcasts to
// remote stations when an instance is created — "references to the
// instance are broadcasted and stored in many remote stations". An
// existing object for the URL (any form) is returned unchanged, and
// nothing is written.
func (s *Store) ImportReference(script Script, impl Implementation, station, origin int) (DocObject, error) {
	return retryDuplicate(func() (DocObject, error) {
		if obj, err := s.ObjectByURL(impl.StartingURL); err == nil {
			return obj, nil
		}
		var b relstore.Batch
		index := s.queueScaffold(&b, script, impl)
		obj := s.newObject(schema.FormReference, impl.StartingURL, station, origin)
		b.Insert(schema.TableDocObjects, s.objectRow(obj))
		return obj, s.commit(&b, nil, nil, index)
	})
}

// MigrateToReference converts a non-persistent local instance into a
// reference, freeing the document content and releasing the BLOBs it
// held: "after a lecture is presented, duplicated document instances
// migrate to document references. Essentially, buffer spaces are used
// only" (section 4). Persistent (instructor-station) instances refuse
// to migrate.
func (s *Store) MigrateToReference(objID string, origin int) error {
	obj, err := s.Object(objID)
	if err != nil {
		return err
	}
	if obj.Form != schema.FormInstance {
		return fmt.Errorf("%w: %s is a %s", ErrWrongForm, objID, obj.Form)
	}
	if obj.Persistent {
		return fmt.Errorf("%w: %s is persistent", ErrWrongForm, objID)
	}
	// The form flip commits in the same batch as the content deletes:
	// a crash can leave the instance whole or the reference bare, never
	// an instance without its pages and media.
	var b relstore.Batch
	b.Update(schema.TableDocObjects, objID, relstore.Row{
		"form":   schema.FormReference,
		"origin": int64(origin),
	})
	drop, err := s.queueContentDrop(&b, obj.StartingURL)
	if err != nil {
		return err
	}
	return s.commit(&b, nil, drop, func(ix ContentIndex) { ix.RemoveContent(obj.StartingURL) })
}

// queueDeletes queues the deletes of the rows of table whose col is
// val, each named by its key column, and returns the rows.
func (s *Store) queueDeletes(b *relstore.Batch, table, col string, val any, key string) ([]relstore.Row, error) {
	rows, err := s.rel.Lookup(table, col, val)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		b.Delete(table, r[key])
	}
	return rows, nil
}

// queueContentDrop queues the deletes of the document-layer files and
// media rows of an implementation, and returns the BLOB references the
// media rows held. The implementation row itself survives (it is small
// metadata a reference still needs).
func (s *Store) queueContentDrop(b *relstore.Batch, url string) ([]blob.Ref, error) {
	for _, table := range []string{schema.TableHTMLFiles, schema.TableProgFiles} {
		if _, err := s.queueDeletes(b, table, "starting_url", url, "file_id"); err != nil {
			return nil, err
		}
	}
	media, err := s.queueDeletes(b, schema.TableImplMedia, "starting_url", url, "res_id")
	return blobRefs(media), err
}

// blobRefs lists the BLOBs media rows name.
func blobRefs(media []relstore.Row) []blob.Ref {
	refs := make([]blob.Ref, len(media))
	for i, r := range media {
		refs[i] = blobRef(r)
	}
	return refs
}

// queueTestDeletes queues the deletes of test records, each after the
// bug reports filed against it.
func (s *Store) queueTestDeletes(b *relstore.Batch, tests []relstore.Row) error {
	for _, tr := range tests {
		name := rowString(tr, "test_name")
		if _, err := s.queueDeletes(b, schema.TableBugReports, "test_name", name, "bug_name"); err != nil {
			return err
		}
		b.Delete(schema.TableTestRecords, name)
	}
	return nil
}

// queueImplDelete queues, children before parents, the deletes that
// remove an implementation and everything hanging off it — test
// records with their bug reports, annotations, document objects, files
// and media rows — and returns the BLOB references the media rows
// held.
func (s *Store) queueImplDelete(b *relstore.Batch, url string) ([]blob.Ref, error) {
	tests, err := s.rel.Lookup(schema.TableTestRecords, "starting_url", url)
	if err != nil {
		return nil, err
	}
	if err := s.queueTestDeletes(b, tests); err != nil {
		return nil, err
	}
	if _, err := s.queueDeletes(b, schema.TableAnnotations, "starting_url", url, "ann_name"); err != nil {
		return nil, err
	}
	if _, err := s.queueDeletes(b, schema.TableDocObjects, "starting_url", url, "obj_id"); err != nil {
		return nil, err
	}
	drop, err := s.queueContentDrop(b, url)
	if err != nil {
		return nil, err
	}
	b.Delete(schema.TableImpls, url)
	return drop, nil
}

// DeleteImplementation removes an implementation and everything hanging
// off it — files, media descriptors (releasing the BLOBs), annotations,
// test records with their bug reports, and document objects — in one
// transaction. The script survives.
//
//lint:ignore unreached paper section 3: deleting an implementation keeps referential integrity over its files, media, records and objects
func (s *Store) DeleteImplementation(url string) error {
	var b relstore.Batch
	drop, err := s.queueImplDelete(&b, url)
	if err != nil {
		return err
	}
	return s.commit(&b, nil, drop, func(ix ContentIndex) { ix.RemoveContent(url) })
}

// DeleteScript removes a script and all of its implementations (the
// instructor's delete privilege of section 5) in one transaction.
// Script-level media is released from the BLOB layer.
//
//lint:ignore unreached paper section 5: the instructor's delete privilege
func (s *Store) DeleteScript(name string) error {
	impls, err := s.Implementations(name)
	if err != nil {
		return err
	}
	var b relstore.Batch
	var drop []blob.Ref
	ours := make(map[string]bool, len(impls))
	for _, im := range impls {
		refs, err := s.queueImplDelete(&b, im.StartingURL)
		if err != nil {
			return err
		}
		drop = append(drop, refs...)
		ours[im.StartingURL] = true
	}
	// The test records and annotations of the script that no
	// implementation's cascade above reached.
	queued := func(r relstore.Row) bool { return ours[rowString(r, "starting_url")] }
	tests, err := s.rel.Lookup(schema.TableTestRecords, "script_name", name)
	if err != nil {
		return err
	}
	if err := s.queueTestDeletes(&b, slices.DeleteFunc(tests, queued)); err != nil {
		return err
	}
	anns, err := s.rel.Lookup(schema.TableAnnotations, "script_name", name)
	if err != nil {
		return err
	}
	for _, a := range slices.DeleteFunc(anns, queued) {
		b.Delete(schema.TableAnnotations, a["ann_name"])
	}
	media, err := s.queueDeletes(&b, schema.TableScriptMedia, "script_name", name, "res_id")
	if err != nil {
		return err
	}
	drop = append(drop, blobRefs(media)...)
	b.Delete(schema.TableScripts, name)
	return s.commit(&b, nil, drop, func(ix ContentIndex) {
		for _, im := range impls {
			ix.RemoveContent(im.StartingURL)
		}
		ix.RemoveScript(name)
	})
}

// ResidentBytes reports the document-layer and BLOB-layer bytes this
// station holds for one implementation. Shared BLOBs count once per
// reference here; physical disk use is the blob store's business.
func (s *Store) ResidentBytes(url string) (int64, error) {
	var total int64
	html, err := s.HTMLFiles(url)
	if err != nil {
		return 0, err
	}
	for _, f := range html {
		total += int64(len(f.Content))
	}
	progs, err := s.ProgramFiles(url)
	if err != nil {
		return 0, err
	}
	for _, f := range progs {
		total += int64(len(f.Content))
	}
	media, err := s.ImplMedia(url)
	if err != nil {
		return 0, err
	}
	for _, m := range media {
		total += m.Ref.Size
	}
	return total, nil
}

// BundleMedia is one multimedia resource carried inside a bundle,
// under the hash that names it in the exporting station's BLOB store.
type BundleMedia struct {
	Name string
	Kind blob.Kind
	Hash string // hex SHA-256 of Data, as in blob.Ref
	Data []byte
}

// Bundle is the transferable closure of one Web document: the script,
// one implementation, its files, its media bytes and its annotations.
// Bundles are what the distribution layer pre-broadcasts down the m-ary
// tree and what on-demand pulls return. The zero Bundle is empty. On
// the wire a bundle encodes itself (bundlewire.go), alone or inside
// another message.
type Bundle struct {
	Script      Script
	Impl        Implementation
	HTML        []File
	Programs    []File
	Media       []BundleMedia
	Annotations []Annotation
}

// TotalBytes is the transfer size of the bundle: file contents plus
// media bytes plus a small metadata overhead per object.
func (b *Bundle) TotalBytes() int64 {
	const perObjectOverhead = 256
	var total int64
	for _, f := range b.HTML {
		total += int64(len(f.Content)) + perObjectOverhead
	}
	for _, f := range b.Programs {
		total += int64(len(f.Content)) + perObjectOverhead
	}
	for _, m := range b.Media {
		total += int64(len(m.Data)) + perObjectOverhead
	}
	for _, a := range b.Annotations {
		total += int64(len(a.File)) + perObjectOverhead
	}
	return total + perObjectOverhead
}

// ExportReference assembles a document's metadata closure — its script
// and implementation rows, all a reference needs — as a bundle without
// content. It is the counterpart of ImportReference, and it works on
// any station that holds the document in any form.
func (s *Store) ExportReference(url string) (*Bundle, error) {
	impl, err := s.Implementation(url)
	if err != nil {
		return nil, err
	}
	script, err := s.Script(impl.ScriptName)
	if err != nil {
		return nil, err
	}
	return &Bundle{Script: script, Impl: impl}, nil
}

// ExportBundle assembles the transferable closure of an implementation
// resident on this station: the metadata closure plus its files, media
// bytes and annotations. The media bytes are the BLOB store's own,
// viewed rather than copied (blob.Store.View): a caller must not write
// to them. A medium restored from the BLOB sidecar is hashed on its
// first export, and one whose bytes fail their hash fails the export
// with blob.ErrHashMismatch naming it.
func (s *Store) ExportBundle(url string) (*Bundle, error) {
	b, err := s.ExportReference(url)
	if err != nil {
		return nil, err
	}
	html, err := s.HTMLFiles(url)
	if err != nil {
		return nil, err
	}
	progs, err := s.ProgramFiles(url)
	if err != nil {
		return nil, err
	}
	mediaRefs, err := s.ImplMedia(url)
	if err != nil {
		return nil, err
	}
	var media []BundleMedia
	for _, m := range mediaRefs {
		data, err := s.blobs.View(m.Ref)
		if errors.Is(err, blob.ErrHashMismatch) {
			return nil, fmt.Errorf("docdb: media %s of %s: %w", m.Name, url, err)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: media %s of %s", ErrNotResident, m.Name, url)
		}
		media = append(media, BundleMedia{Name: m.Name, Kind: m.Kind, Hash: m.Ref.Hash, Data: data})
	}
	anns, err := s.Annotations(url)
	if err != nil {
		return nil, err
	}
	b.HTML, b.Programs, b.Media, b.Annotations = html, progs, media, anns
	return b, nil
}

// ImportBundle installs a received bundle on this station, creating the
// database, script and implementation when missing, and returns the
// local instance object. Media bytes go through the BLOB layer, so
// resources already resident are shared, not duplicated.
//
// Each medium is adopted under the hash the bundle carries for it
// (blob.Store.Adopt): the station that exported the bundle hashed it,
// and this one does not hash it again. A medium whose hash is missing
// or malformed fails the import with blob.ErrBadHash before anything
// is written; nothing falls back to hashing the bytes. ImportBundle
// trusts the hashes it is given: a caller holding bytes no station has
// hashed — the Import RPC, fed by a client — checks them first
// (blob.Store.Verify). A mismatch that slips through is written to the
// next BLOB sidecar as it is, and after a restart its first read fails.
//
// The BLOB store adopts b's media bytes instead of copying them, so the
// caller hands them over: nothing may write to a Media[i].Data after
// the call, whether the import succeeds or not. Every caller passes
// bytes nothing writes again — a push frame body, a resolve reply, a
// state-stream record, an Import RPC body (each a buffer read for that
// one message and never reused), or another store's ExportBundle,
// which views that store's immutable objects. A new object aliases
// those bytes, and so keeps the array under them alive until the
// object is released. Page, program and annotation bytes become row
// values as given; ReadBundle decodes them as owning copies, so no row
// pins a frame.
//
// The import is one transaction: the media BLOBs are adopted first,
// then the scaffold rows the station lacks (database, script,
// implementation), the files, media descriptors, annotations and the
// instance object commit as one batch — one lock acquisition and one
// WAL append for the whole bundle — and a batch that fails releases
// the adoptions, so a failed import leaves no rows and no BLOB
// references behind. An import that loses a race for a scaffold row to
// a concurrent import runs once more.
func (s *Store) ImportBundle(b *Bundle, station int, persistent bool) (DocObject, error) {
	return retryDuplicate(func() (DocObject, error) { return s.importBundle(b, station, persistent) })
}

// importBundle is one attempt at ImportBundle.
func (s *Store) importBundle(b *Bundle, station int, persistent bool) (DocObject, error) {
	url := b.Impl.StartingURL
	// Re-importing a resident instance is a no-op: the content is
	// already here and duplicating the media descriptors would distort
	// the disk accounting.
	obj, err := s.ObjectByURL(url)
	held := err == nil
	if held && obj.Form == schema.FormInstance {
		return obj, nil
	}
	for _, m := range b.Media {
		if !blob.ValidHash(m.Hash) {
			return DocObject{}, fmt.Errorf("docdb: medium %q of %s: %w: %q", m.Name, url, blob.ErrBadHash, m.Hash)
		}
	}
	var batch relstore.Batch
	indexScaffold := s.queueScaffold(&batch, b.Script, b.Impl)
	s.queueFiles(&batch, url, b.HTML, b.Programs)
	refs := make([]blob.Ref, 0, len(b.Media))
	for _, m := range b.Media {
		ref, err := s.blobs.Adopt(m.Name, m.Kind, m.Hash, m.Data)
		if err != nil {
			s.releaseAll(refs)
			return DocObject{}, fmt.Errorf("docdb: medium %q of %s: %w", m.Name, url, err)
		}
		refs = append(refs, ref)
		batch.Insert(schema.TableImplMedia, mediaRow(schema.TableImplMedia, MediaRef{
			ResID: s.nextID("res"), Owner: url, Name: m.Name, Kind: m.Kind, Ref: ref,
		}))
	}
	for _, a := range b.Annotations {
		if !s.rel.Exists(schema.TableAnnotations, a.Name) {
			batch.Insert(schema.TableAnnotations, s.annotationRow(a))
		}
	}
	// An existing reference for this URL upgrades to an instance;
	// otherwise a fresh instance object is recorded.
	switch {
	case !held:
		obj = s.newObject(schema.FormInstance, url, station, station)
		obj.Persistent = persistent
		batch.Insert(schema.TableDocObjects, s.objectRow(obj))
	case obj.Form == schema.FormReference:
		obj.Form, obj.Persistent, obj.Station = schema.FormInstance, persistent, int64(station)
		batch.Update(schema.TableDocObjects, obj.ID, relstore.Row{
			"form":       obj.Form,
			"persistent": obj.Persistent,
			"station":    obj.Station,
		})
	}
	return obj, s.commit(&batch, refs, nil, func(ix ContentIndex) {
		indexScaffold(ix)
		indexFiles(ix, url, b.HTML, b.Programs)
	})
}
