package docdb

import (
	"errors"
	"fmt"
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
	obj := s.instanceObject(url, station, persistent)
	return obj, s.insertObject(obj)
}

// instanceObject is a fresh instance object for url held at station.
func (s *Store) instanceObject(url string, station int, persistent bool) DocObject {
	return DocObject{
		ID:          s.nextID("obj"),
		Form:        schema.FormInstance,
		StartingURL: url,
		Station:     int64(station),
		Origin:      int64(station),
		Persistent:  persistent,
	}
}

// MakeReference records a reference-to-instance: a mirror entry telling
// this station where the physical instance lives. References are what
// the paper broadcasts to remote stations when an instance is created.
func (s *Store) MakeReference(url string, station, origin int) (DocObject, error) {
	obj := DocObject{
		ID:          s.nextID("obj"),
		Form:        schema.FormReference,
		StartingURL: url,
		Station:     int64(station),
		Origin:      int64(origin),
	}
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

// ObjectsByForm lists document objects of one form.
func (s *Store) ObjectsByForm(form string) ([]DocObject, error) {
	rows, err := s.rel.Lookup(schema.TableDocObjects, "form", form)
	if err != nil {
		return nil, err
	}
	out := make([]DocObject, len(rows))
	for i, r := range rows {
		out[i] = objectFromRow(r)
	}
	return out, nil
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
	class := DocObject{
		ID:          s.nextID("obj"),
		Form:        schema.FormClass,
		StartingURL: inst.StartingURL,
		Station:     inst.Station,
		Origin:      inst.Station,
		Persistent:  true,
	}
	if err := s.insertObject(class); err != nil {
		return DocObject{}, err
	}
	if err := s.rel.Update(schema.TableDocObjects, instanceID, relstore.Row{"class_id": class.ID}); err != nil {
		return DocObject{}, err
	}
	return class, nil
}

// Instantiate creates a new document instance from a class: the class's
// structure (HTML and program files) is copied to the new starting URL
// and pointers to the class's multimedia data are created — no BLOB
// bytes are duplicated (prototype reuse of section 4).
func (s *Store) Instantiate(classID, newURL string, station int) (DocObject, error) {
	class, err := s.Object(classID)
	if err != nil {
		return DocObject{}, err
	}
	if class.Form != schema.FormClass {
		return DocObject{}, fmt.Errorf("%w: %s is a %s", ErrWrongForm, classID, class.Form)
	}
	srcImpl, err := s.Implementation(class.StartingURL)
	if err != nil {
		return DocObject{}, err
	}
	if err := s.copyStructure(class.StartingURL, newURL, srcImpl.ScriptName, srcImpl.Author); err != nil {
		return DocObject{}, err
	}
	obj := DocObject{
		ID:          s.nextID("obj"),
		Form:        schema.FormInstance,
		StartingURL: newURL,
		Station:     int64(station),
		Origin:      int64(station),
		ClassID:     classID,
	}
	return obj, s.insertObject(obj)
}

// DuplicateComponent duplicates a reusable compound object to a new
// starting URL with the document-layer files copied (they are
// "relatively smaller sizes, such as HTML files") and the BLOBs shared,
// exactly as section 3 prescribes.
func (s *Store) DuplicateComponent(url, newURL, author string) error {
	srcImpl, err := s.Implementation(url)
	if err != nil {
		return err
	}
	return s.copyStructure(url, newURL, srcImpl.ScriptName, author)
}

// copyStructure clones the implementation row, its HTML and program
// files, and shares its media refs under a new starting URL. The file
// copies go through one batched transaction.
func (s *Store) copyStructure(srcURL, dstURL, scriptName, author string) error {
	if err := s.AddImplementation(Implementation{StartingURL: dstURL, ScriptName: scriptName, Author: author}); err != nil {
		return err
	}
	html, err := s.HTMLFiles(srcURL)
	if err != nil {
		return err
	}
	var files relstore.Batch
	for _, f := range html {
		content := make([]byte, len(f.Content))
		copy(content, f.Content)
		s.queueHTML(&files, dstURL, f.Path, content)
	}
	progs, err := s.ProgramFiles(srcURL)
	if err != nil {
		return err
	}
	for _, f := range progs {
		content := make([]byte, len(f.Content))
		copy(content, f.Content)
		s.queueProgram(&files, dstURL, f.Path, f.Language, content)
	}
	err = s.rel.ApplyThen(&files, func() {
		ix := s.ContentIndex()
		if ix == nil {
			return
		}
		for _, f := range html {
			ix.IndexHTML(dstURL, f.Path, f.Content)
		}
		for _, f := range progs {
			ix.IndexProgram(dstURL, f.Path, f.Language, f.Content)
		}
	})
	if err != nil {
		return err
	}
	media, err := s.ImplMedia(srcURL)
	if err != nil {
		return err
	}
	for _, m := range media {
		if _, err := s.ShareImplMedia(dstURL, m.Name, m.Ref); err != nil {
			return err
		}
	}
	return nil
}

// ensureScaffold installs the metadata a document hangs off — the
// database, script and implementation rows — when missing. Both
// import paths (full bundles and bare references) share it.
func (s *Store) ensureScaffold(script Script, impl Implementation) error {
	if !s.rel.Exists(schema.TableDatabases, script.DBName) {
		// Documents of one database may be imported concurrently; the
		// importer that loses the race for the shared row finds it there.
		if err := s.CreateDatabase(Database{Name: script.DBName}); err != nil && !errors.Is(err, relstore.ErrDuplicate) {
			return err
		}
	}
	if !s.rel.Exists(schema.TableScripts, script.Name) {
		if err := s.CreateScript(script); err != nil {
			return err
		}
	}
	if !s.rel.Exists(schema.TableImpls, impl.StartingURL) {
		if err := s.AddImplementation(impl); err != nil {
			return err
		}
	}
	return nil
}

// ImportReference installs the metadata scaffolding for a document
// whose physical instance lives on another station, plus a reference
// object pointing at the origin. This is what the paper broadcasts to
// remote stations when an instance is created — "references to the
// instance are broadcasted and stored in many remote stations". An
// existing object for the URL (any form) is returned unchanged.
func (s *Store) ImportReference(script Script, impl Implementation, station, origin int) (DocObject, error) {
	if err := s.ensureScaffold(script, impl); err != nil {
		return DocObject{}, err
	}
	if obj, err := s.ObjectByURL(impl.StartingURL); err == nil {
		return obj, nil
	}
	return s.MakeReference(impl.StartingURL, station, origin)
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
	if err := s.dropContent(obj.StartingURL); err != nil {
		return err
	}
	return s.rel.Update(schema.TableDocObjects, objID, relstore.Row{
		"form":   schema.FormReference,
		"origin": int64(origin),
	})
}

// dropContent deletes the document-layer files of an implementation and
// releases its BLOB references. The implementation row itself survives
// (it is small metadata a reference still needs). The row deletes land
// as one batch whose commit also drops the content from the index.
func (s *Store) dropContent(url string) error {
	html, err := s.HTMLFiles(url)
	if err != nil {
		return err
	}
	progs, err := s.ProgramFiles(url)
	if err != nil {
		return err
	}
	media, err := s.ImplMedia(url)
	if err != nil {
		return err
	}
	var b relstore.Batch
	for _, f := range html {
		b.Delete(schema.TableHTMLFiles, f.ID)
	}
	for _, f := range progs {
		b.Delete(schema.TableProgFiles, f.ID)
	}
	for _, m := range media {
		b.Delete(schema.TableImplMedia, m.ResID)
	}
	err = s.rel.ApplyThen(&b, func() {
		if ix := s.ContentIndex(); ix != nil {
			ix.RemoveContent(url)
		}
	})
	if err != nil {
		return err
	}
	for _, m := range media {
		if err := s.blobs.Release(m.Ref); err != nil {
			return err
		}
	}
	return nil
}

// DeleteImplementation removes an implementation and everything hanging
// off it — files, media descriptors (releasing the BLOBs), annotations,
// test records with their bug reports, and document objects — in
// FK-safe order. The script survives.
func (s *Store) DeleteImplementation(url string) error {
	if _, err := s.Implementation(url); err != nil {
		return err
	}
	// Bug reports -> test records referencing this implementation.
	tests, err := s.rel.Lookup(schema.TableTestRecords, "starting_url", url)
	if err != nil {
		return err
	}
	for _, tr := range tests {
		name := rowString(tr, "test_name")
		bugs, err := s.BugReports(name)
		if err != nil {
			return err
		}
		for _, b := range bugs {
			if err := s.rel.Delete(schema.TableBugReports, b.Name); err != nil {
				return err
			}
		}
		if err := s.rel.Delete(schema.TableTestRecords, name); err != nil {
			return err
		}
	}
	anns, err := s.Annotations(url)
	if err != nil {
		return err
	}
	for _, a := range anns {
		if err := s.rel.Delete(schema.TableAnnotations, a.Name); err != nil {
			return err
		}
	}
	objs, err := s.rel.Lookup(schema.TableDocObjects, "starting_url", url)
	if err != nil {
		return err
	}
	for _, o := range objs {
		if err := s.rel.Delete(schema.TableDocObjects, rowString(o, "obj_id")); err != nil {
			return err
		}
	}
	if err := s.dropContent(url); err != nil {
		return err
	}
	return s.rel.Delete(schema.TableImpls, url)
}

// DeleteScript removes a script and all of its implementations (the
// instructor's delete privilege of section 5). Script-level media is
// released from the BLOB layer.
func (s *Store) DeleteScript(name string) error {
	impls, err := s.Implementations(name)
	if err != nil {
		return err
	}
	for _, im := range impls {
		if err := s.DeleteImplementation(im.StartingURL); err != nil {
			return err
		}
	}
	// Test records attached to the script without an implementation.
	tests, err := s.TestRecords(name)
	if err != nil {
		return err
	}
	for _, tr := range tests {
		bugs, err := s.BugReports(tr.Name)
		if err != nil {
			return err
		}
		for _, b := range bugs {
			if err := s.rel.Delete(schema.TableBugReports, b.Name); err != nil {
				return err
			}
		}
		if err := s.rel.Delete(schema.TableTestRecords, tr.Name); err != nil {
			return err
		}
	}
	// Script-only annotations.
	anns, err := s.rel.Lookup(schema.TableAnnotations, "script_name", name)
	if err != nil {
		return err
	}
	for _, a := range anns {
		if err := s.rel.Delete(schema.TableAnnotations, rowString(a, "ann_name")); err != nil {
			return err
		}
	}
	media, err := s.ScriptMedia(name)
	if err != nil {
		return err
	}
	for _, m := range media {
		if err := s.rel.Delete(schema.TableScriptMedia, m.ResID); err != nil {
			return err
		}
		if err := s.blobs.Release(m.Ref); err != nil {
			return err
		}
	}
	var b relstore.Batch
	b.Delete(schema.TableScripts, name)
	return s.rel.ApplyThen(&b, func() {
		if ix := s.ContentIndex(); ix != nil {
			ix.RemoveScript(name)
		}
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

// BundleMedia is one multimedia resource carried inside a bundle.
type BundleMedia struct {
	Name string
	Kind blob.Kind
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
// to them.
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
		if err != nil {
			return nil, fmt.Errorf("%w: media %s of %s", ErrNotResident, m.Name, url)
		}
		media = append(media, BundleMedia{Name: m.Name, Kind: m.Kind, Data: data})
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
// The import is atomic: the media BLOBs are put first, then the files,
// media descriptors, annotations and the instance object commit as one
// batch — one lock acquisition and one WAL append for the whole
// bundle — and a batch that fails releases the puts, so a failed
// import leaves no rows and no BLOB references behind. Only the
// scaffold rows (database, script, implementation) commit ahead of the
// batch; creating them is idempotent.
func (s *Store) ImportBundle(b *Bundle, station int, persistent bool) (DocObject, error) {
	url := b.Impl.StartingURL
	// Re-importing a resident instance is a no-op: the content is
	// already here and duplicating the media descriptors would distort
	// the disk accounting.
	if obj, err := s.ObjectByURL(url); err == nil && obj.Form == schema.FormInstance {
		return obj, nil
	}
	if err := s.ensureScaffold(b.Script, b.Impl); err != nil {
		return DocObject{}, err
	}
	var batch relstore.Batch
	for _, f := range b.HTML {
		s.queueHTML(&batch, url, f.Path, f.Content)
	}
	for _, f := range b.Programs {
		s.queueProgram(&batch, url, f.Path, f.Language, f.Content)
	}
	refs := make([]blob.Ref, len(b.Media))
	for i, m := range b.Media {
		refs[i] = s.blobs.Put(m.Name, m.Kind, m.Data)
		batch.Insert(schema.TableImplMedia, implMediaRow(MediaRef{
			ResID: s.nextID("res"), Owner: url, Name: m.Name, Kind: m.Kind, Ref: refs[i],
		}))
	}
	for _, a := range b.Annotations {
		if !s.rel.Exists(schema.TableAnnotations, a.Name) {
			batch.Insert(schema.TableAnnotations, s.annotationRow(a))
		}
	}
	// An existing reference for this URL upgrades to an instance;
	// otherwise a fresh instance object is recorded.
	obj, err := s.ObjectByURL(url)
	switch {
	case err != nil:
		obj = s.instanceObject(url, station, persistent)
		batch.Insert(schema.TableDocObjects, s.objectRow(obj))
	case obj.Form == schema.FormReference:
		obj.Form, obj.Persistent, obj.Station = schema.FormInstance, persistent, int64(station)
		batch.Update(schema.TableDocObjects, obj.ID, relstore.Row{
			"form":       obj.Form,
			"persistent": obj.Persistent,
			"station":    obj.Station,
		})
	}
	err = s.rel.ApplyThen(&batch, func() {
		ix := s.ContentIndex()
		if ix == nil {
			return
		}
		for _, f := range b.HTML {
			ix.IndexHTML(url, f.Path, f.Content)
		}
		for _, f := range b.Programs {
			ix.IndexProgram(url, f.Path, f.Language, f.Content)
		}
	})
	if err != nil {
		for _, ref := range refs {
			s.blobs.Release(ref)
		}
		return DocObject{}, err
	}
	return obj, nil
}
