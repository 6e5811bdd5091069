// Package schema defines the relational layout of the paper's Web
// document database: the three-layer hierarchy of section 3 mapped onto
// the tables of the underlying relational engine. The Database layer
// holds named course databases; the Document layer holds Script,
// Implementation, TestRecord, BugReport and Annotation objects plus
// their HTML and program files; the BLOB layer is managed by the blob
// package, with the document layer holding typed references.
package schema

import (
	"strings"

	"repro/internal/relstore"
)

// Table names used throughout the system.
const (
	TableDatabases   = "databases"
	TableScripts     = "scripts"
	TableImpls       = "implementations"
	TableHTMLFiles   = "html_files"
	TableProgFiles   = "program_files"
	TableScriptMedia = "script_media"
	TableImplMedia   = "impl_media"
	TableTestRecords = "test_records"
	TableBugReports  = "bug_reports"
	TableAnnotations = "annotations"
	TableDocObjects  = "doc_objects"
	TableVersions    = "versions"
	TableCheckouts   = "checkouts"
)

// All returns the schema of every table, in dependency order (parents
// before children), ready for relstore.CreateTable.
func All() []relstore.Schema {
	return []relstore.Schema{
		{
			// Database layer: "each database can have a number of
			// documents", identified by script names.
			Name: TableDatabases,
			Columns: []relstore.Column{
				{Name: "db_name", Type: relstore.TText, NotNull: true},
				{Name: "keywords", Type: relstore.TText},
				{Name: "author", Type: relstore.TText},
				{Name: "version", Type: relstore.TInt},
				{Name: "created", Type: relstore.TTime},
			},
			Key: "db_name",
		},
		{
			// Script table of section 3.
			Name: TableScripts,
			Columns: []relstore.Column{
				{Name: "script_name", Type: relstore.TText, NotNull: true},
				{Name: "db_name", Type: relstore.TText, NotNull: true},
				{Name: "keywords", Type: relstore.TText},
				{Name: "author", Type: relstore.TText},
				{Name: "version", Type: relstore.TInt},
				{Name: "created", Type: relstore.TTime},
				{Name: "description", Type: relstore.TText},
				{Name: "expected_completion", Type: relstore.TTime},
				{Name: "pct_complete", Type: relstore.TFloat},
			},
			Key:         "script_name",
			ForeignKeys: []relstore.ForeignKey{{Column: "db_name", RefTable: TableDatabases}},
		},
		{
			// Implementation table: one row per try of implementing a
			// script, keyed by its unique starting URL.
			Name: TableImpls,
			Columns: []relstore.Column{
				{Name: "starting_url", Type: relstore.TText, NotNull: true},
				{Name: "script_name", Type: relstore.TText, NotNull: true},
				{Name: "author", Type: relstore.TText},
				{Name: "created", Type: relstore.TTime},
			},
			Key:         "starting_url",
			ForeignKeys: []relstore.ForeignKey{{Column: "script_name", RefTable: TableScripts}},
		},
		{
			// HTML files of an implementation (small document-layer
			// objects, duplicated on reuse rather than shared).
			Name: TableHTMLFiles,
			Columns: []relstore.Column{
				{Name: "file_id", Type: relstore.TText, NotNull: true},
				{Name: "starting_url", Type: relstore.TText, NotNull: true},
				{Name: "path", Type: relstore.TText, NotNull: true},
				{Name: "content", Type: relstore.TBytes},
			},
			Key:         "file_id",
			ForeignKeys: []relstore.ForeignKey{{Column: "starting_url", RefTable: TableImpls}},
		},
		{
			// Add-on control program files (Java applets / ASP in the
			// paper).
			Name: TableProgFiles,
			Columns: []relstore.Column{
				{Name: "file_id", Type: relstore.TText, NotNull: true},
				{Name: "starting_url", Type: relstore.TText, NotNull: true},
				{Name: "path", Type: relstore.TText, NotNull: true},
				{Name: "language", Type: relstore.TText},
				{Name: "content", Type: relstore.TBytes},
			},
			Key:         "file_id",
			ForeignKeys: []relstore.ForeignKey{{Column: "starting_url", RefTable: TableImpls}},
		},
		{
			// Multimedia resources attached to a script (e.g. the verbal
			// description of section 3): file descriptors pointing into
			// the BLOB layer.
			Name: TableScriptMedia,
			Columns: []relstore.Column{
				{Name: "res_id", Type: relstore.TText, NotNull: true},
				{Name: "script_name", Type: relstore.TText, NotNull: true},
				{Name: "name", Type: relstore.TText},
				{Name: "kind", Type: relstore.TInt},
				{Name: "blob_hash", Type: relstore.TText, NotNull: true},
				{Name: "size", Type: relstore.TInt},
			},
			Key:         "res_id",
			ForeignKeys: []relstore.ForeignKey{{Column: "script_name", RefTable: TableScripts}},
		},
		{
			// Multimedia resources used by an implementation.
			Name: TableImplMedia,
			Columns: []relstore.Column{
				{Name: "res_id", Type: relstore.TText, NotNull: true},
				{Name: "starting_url", Type: relstore.TText, NotNull: true},
				{Name: "name", Type: relstore.TText},
				{Name: "kind", Type: relstore.TInt},
				{Name: "blob_hash", Type: relstore.TText, NotNull: true},
				{Name: "size", Type: relstore.TInt},
			},
			Key:         "res_id",
			ForeignKeys: []relstore.ForeignKey{{Column: "starting_url", RefTable: TableImpls}},
		},
		{
			// TestRecord table of section 3.
			Name: TableTestRecords,
			Columns: []relstore.Column{
				{Name: "test_name", Type: relstore.TText, NotNull: true},
				{Name: "script_name", Type: relstore.TText, NotNull: true},
				{Name: "starting_url", Type: relstore.TText},
				{Name: "scope", Type: relstore.TText}, // local | global
				{Name: "messages", Type: relstore.TText},
				{Name: "created", Type: relstore.TTime},
			},
			Key: "test_name",
			ForeignKeys: []relstore.ForeignKey{
				{Column: "script_name", RefTable: TableScripts},
				{Column: "starting_url", RefTable: TableImpls},
			},
		},
		{
			// BugReport table of section 3.
			Name: TableBugReports,
			Columns: []relstore.Column{
				{Name: "bug_name", Type: relstore.TText, NotNull: true},
				{Name: "test_name", Type: relstore.TText, NotNull: true},
				{Name: "qa_engineer", Type: relstore.TText},
				{Name: "procedure", Type: relstore.TText},
				{Name: "description", Type: relstore.TText},
				{Name: "bad_urls", Type: relstore.TText},
				{Name: "missing_objects", Type: relstore.TText},
				{Name: "inconsistency", Type: relstore.TText},
				{Name: "redundant_objects", Type: relstore.TText},
				{Name: "created", Type: relstore.TTime},
			},
			Key:         "bug_name",
			ForeignKeys: []relstore.ForeignKey{{Column: "test_name", RefTable: TableTestRecords}},
		},
		{
			// Annotation table of section 3: per-instructor overlays on
			// an implementation.
			Name: TableAnnotations,
			Columns: []relstore.Column{
				{Name: "ann_name", Type: relstore.TText, NotNull: true},
				{Name: "script_name", Type: relstore.TText, NotNull: true},
				{Name: "starting_url", Type: relstore.TText},
				{Name: "author", Type: relstore.TText},
				{Name: "version", Type: relstore.TInt},
				{Name: "created", Type: relstore.TTime},
				{Name: "file", Type: relstore.TBytes}, // encoded annotation document
			},
			Key: "ann_name",
			ForeignKeys: []relstore.ForeignKey{
				{Column: "script_name", RefTable: TableScripts},
				{Column: "starting_url", RefTable: TableImpls},
			},
		},
		{
			// Web Document object forms of section 4: class, instance or
			// reference-to-instance, each placed on a station.
			Name: TableDocObjects,
			Columns: []relstore.Column{
				{Name: "obj_id", Type: relstore.TText, NotNull: true},
				{Name: "form", Type: relstore.TText, NotNull: true}, // class | instance | reference
				{Name: "starting_url", Type: relstore.TText, NotNull: true},
				{Name: "station", Type: relstore.TInt},
				{Name: "origin", Type: relstore.TInt}, // station holding the referenced instance
				{Name: "class_id", Type: relstore.TText},
				{Name: "persistent", Type: relstore.TBool},
				{Name: "created", Type: relstore.TTime},
			},
			Key:         "obj_id",
			ForeignKeys: []relstore.ForeignKey{{Column: "starting_url", RefTable: TableImpls}},
		},
		{
			// Software-configuration-management version history.
			Name: TableVersions,
			Columns: []relstore.Column{
				{Name: "ver_id", Type: relstore.TText, NotNull: true},
				{Name: "object_kind", Type: relstore.TText, NotNull: true},
				{Name: "object_id", Type: relstore.TText, NotNull: true},
				{Name: "version", Type: relstore.TInt, NotNull: true},
				{Name: "author", Type: relstore.TText},
				{Name: "comment", Type: relstore.TText},
				{Name: "created", Type: relstore.TTime},
			},
			Key: "ver_id",
		},
		{
			// Check-in/check-out ledger for collaborative editing and
			// the virtual library.
			Name: TableCheckouts,
			Columns: []relstore.Column{
				{Name: "co_id", Type: relstore.TText, NotNull: true},
				{Name: "object_kind", Type: relstore.TText, NotNull: true},
				{Name: "object_id", Type: relstore.TText, NotNull: true},
				{Name: "user", Type: relstore.TText, NotNull: true},
				{Name: "out_time", Type: relstore.TTime},
				{Name: "in_time", Type: relstore.TTime},
			},
			Key: "co_id",
		},
	}
}

// Create installs every table into the engine and adds the secondary
// indexes the document layer queries through.
func Create(db *relstore.DB) error {
	for _, s := range All() {
		if err := db.CreateTable(s); err != nil {
			return err
		}
	}
	return CreateIndexes(db)
}

// CreateIndexes adds the secondary indexes to an engine that holds the
// tables; indexes already present are left alone, so it also brings a
// database restored from an older checkpoint up to date.
func CreateIndexes(db *relstore.DB) error {
	// Query-path indexes beyond the automatic FK indexes. The
	// composite one counts a component's versions, and the partial one
	// below holds only a component's open checkout (in_time IS NULL);
	// together they keep the configuration-management ledger's
	// check-out and check-in independent of a component's history.
	for _, ix := range [][]string{
		{TableScripts, "author"},
		{TableScripts, "keywords"},
		{TableCheckouts, "user"},
		{TableCheckouts, "object_id"},
		{TableVersions, "object_id"},
		{TableVersions, "object_kind", "object_id"},
		{TableDocObjects, "station"},
		{TableDocObjects, "form"},
	} {
		if err := db.CreateIndex(ix[0], ix[1:]...); err != nil {
			return err
		}
	}
	return db.CreatePartialIndex(TableCheckouts, "in_time", "object_kind", "object_id")
}

// JoinList and SplitList encode multi-valued text attributes (keywords,
// bad URLs, missing objects) as newline-separated text, the flattening
// the paper's relational mapping implies.
func JoinList(items []string) string {
	return strings.Join(items, "\n")
}

// SplitList is the inverse of JoinList; empty text yields nil.
func SplitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// Object kinds used by the version/checkout tables and the lock
// hierarchy.
const (
	KindDatabase       = "database"
	KindScript         = "script"
	KindImplementation = "implementation"
	KindHTMLFile       = "html_file"
	KindProgramFile    = "program_file"
	KindTestRecord     = "test_record"
	KindBugReport      = "bug_report"
	KindAnnotation     = "annotation"
	KindMedia          = "media"
)

// Document object forms of section 4.
const (
	FormClass     = "class"
	FormInstance  = "instance"
	FormReference = "reference"
)
