package docdb

import (
	"fmt"
	"time"

	"repro/internal/relstore"
	"repro/internal/schema"
)

// TestRecord mirrors the paper's TestRecord table: one testing session
// over an implementation, with the windowing messages that drove the Web
// document traversal.
type TestRecord struct {
	Name        string
	ScriptName  string
	StartingURL string
	Scope       string // "local" or "global"
	Messages    []string
	Created     time.Time
}

// RecordTest stores a test record.
func (s *Store) RecordTest(tr TestRecord) error {
	row := relstore.Row{
		"test_name":   tr.Name,
		"script_name": tr.ScriptName,
		"scope":       tr.Scope,
		"messages":    schema.JoinList(tr.Messages),
		"created":     s.Now(),
	}
	if tr.StartingURL != "" {
		row["starting_url"] = tr.StartingURL
	}
	return s.rel.Insert(schema.TableTestRecords, row)
}

// BugReport mirrors the paper's BugReport table.
type BugReport struct {
	Name             string
	TestName         string
	QAEngineer       string
	Procedure        string
	Description      string
	BadURLs          []string
	MissingObjects   []string
	Inconsistency    string
	RedundantObjects []string
	Created          time.Time
}

// FileBugReport stores a bug report against a test record.
func (s *Store) FileBugReport(br BugReport) error {
	return s.rel.Insert(schema.TableBugReports, relstore.Row{
		"bug_name":          br.Name,
		"test_name":         br.TestName,
		"qa_engineer":       br.QAEngineer,
		"procedure":         br.Procedure,
		"description":       br.Description,
		"bad_urls":          schema.JoinList(br.BadURLs),
		"missing_objects":   schema.JoinList(br.MissingObjects),
		"inconsistency":     br.Inconsistency,
		"redundant_objects": schema.JoinList(br.RedundantObjects),
		"created":           s.Now(),
	})
}

// Annotation mirrors the paper's Annotation table: a per-instructor
// overlay (lines, text, simple graphics) on an implementation, stored as
// an encoded annotation file.
type Annotation struct {
	Name        string
	ScriptName  string
	StartingURL string
	Author      string
	Version     int64
	Created     time.Time
	File        []byte // encoded by the annotate package
}

// SaveAnnotation stores an annotation object.
func (s *Store) SaveAnnotation(a Annotation) error {
	return s.rel.Insert(schema.TableAnnotations, s.annotationRow(a))
}

// annotationRow is the annotations row SaveAnnotation inserts for a.
func (s *Store) annotationRow(a Annotation) relstore.Row {
	if a.Version == 0 {
		a.Version = 1
	}
	row := relstore.Row{
		"ann_name":    a.Name,
		"script_name": a.ScriptName,
		"author":      a.Author,
		"version":     a.Version,
		"created":     s.Now(),
		"file":        a.File,
	}
	if a.StartingURL != "" {
		row["starting_url"] = a.StartingURL
	}
	return row
}

// ReplaceAnnotation overwrites an existing annotation's file and bumps
// its version — an instructor revising their overlay between lectures.
// The read and the bump run in one relstore transaction, so concurrent
// replacements of one annotation each bump the version once.
//
//lint:ignore unreached paper section 3: an instructor revises an annotation, which versions it
func (s *Store) ReplaceAnnotation(name string, file []byte) error {
	tx, err := s.rel.Begin(schema.TableAnnotations)
	if err != nil {
		return err
	}
	row, err := tx.Get(schema.TableAnnotations, name)
	if err == nil {
		err = tx.Update(schema.TableAnnotations, name, relstore.Row{
			"file":    file,
			"version": rowInt(row, "version") + 1,
			"created": s.Now(),
		})
	}
	if err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// Annotations lists the annotations over an implementation, one per
// instructor in the paper's usage.
func (s *Store) Annotations(url string) ([]Annotation, error) {
	rows, err := s.rel.Lookup(schema.TableAnnotations, "starting_url", url)
	if err != nil {
		return nil, err
	}
	out := make([]Annotation, len(rows))
	for i, r := range rows {
		f, _ := r["file"].([]byte)
		out[i] = Annotation{
			Name:        rowString(r, "ann_name"),
			ScriptName:  rowString(r, "script_name"),
			StartingURL: rowString(r, "starting_url"),
			Author:      rowString(r, "author"),
			Version:     rowInt(r, "version"),
			Created:     rowTime(r, "created"),
			File:        f,
		}
	}
	return out, nil
}

// Checkout is one row of the check-in/check-out ledger.
type Checkout struct {
	ID         string
	ObjectKind string
	ObjectID   string
	User       string
	OutTime    time.Time
	InTime     time.Time // zero while still out
}

// Version is one row of the configuration-management history.
type Version struct {
	ID         string
	ObjectKind string
	ObjectID   string
	Version    int64
	Author     string
	Comment    string
	Created    time.Time
}

// CheckOut opens a checkout of a course component for a user. A
// component may be checked out by only one user at a time (the paper's
// configuration management of course components); a second attempt
// fails with ErrCheckedOut. The availability check and the ledger
// insert run in one relstore transaction holding the checkouts table,
// so two users racing for the same component cannot both win. Returns
// the checkout id used by CheckIn.
func (s *Store) CheckOut(kind, objectID, user string) (string, error) {
	tx, err := s.rel.Begin(schema.TableCheckouts)
	if err != nil {
		return "", err
	}
	open, err := openCheckoutTx(tx, kind, objectID)
	if err != nil {
		tx.Rollback()
		return "", err
	}
	if open != nil {
		tx.Rollback()
		return "", fmt.Errorf("%w: %s %s by %s", ErrCheckedOut, kind, objectID, open.User)
	}
	id := s.nextID("co")
	err = tx.Insert(schema.TableCheckouts, relstore.Row{
		"co_id":       id,
		"object_kind": kind,
		"object_id":   objectID,
		"user":        user,
		"out_time":    s.Now(),
	})
	if err != nil {
		tx.Rollback()
		return "", err
	}
	if err := tx.Commit(); err != nil {
		return "", err
	}
	return id, nil
}

// componentConds selects the ledger rows of one component.
func componentConds(kind, objectID string) []relstore.Cond {
	return []relstore.Cond{
		{Col: "object_kind", Op: relstore.OpEq, Val: kind},
		{Col: "object_id", Op: relstore.OpEq, Val: objectID},
	}
}

// openCheckoutTx returns the open checkout of an object as seen inside
// the transaction, nil when none. Only open rows are looked at: the
// ledger's partial index on (object_kind, object_id) holds them apart
// from the component's closed history.
func openCheckoutTx(tx *relstore.Tx, kind, objectID string) (*Checkout, error) {
	rows, err := tx.Select(relstore.Query{
		Table: schema.TableCheckouts,
		Conds: append(componentConds(kind, objectID), relstore.Cond{Col: "in_time", Op: relstore.OpIsNull}),
	})
	if err != nil || len(rows) == 0 {
		return nil, err
	}
	co := checkoutFromRow(rows[0])
	return &co, nil
}

func checkoutFromRow(r relstore.Row) Checkout {
	return Checkout{
		ID:         rowString(r, "co_id"),
		ObjectKind: rowString(r, "object_kind"),
		ObjectID:   rowString(r, "object_id"),
		User:       rowString(r, "user"),
		OutTime:    rowTime(r, "out_time"),
		InTime:     rowTime(r, "in_time"),
	}
}

// CheckIn closes a checkout and records a new version of the component
// in the history, bumping the version counter. The close and the
// version bump run in one relstore transaction over the checkouts and
// versions tables, so concurrent check-ins of different components
// proceed in parallel yet never race a version number.
func (s *Store) CheckIn(checkoutID, comment string) error {
	tx, err := s.rel.Begin(schema.TableCheckouts, schema.TableVersions)
	if err != nil {
		return err
	}
	row, err := tx.Get(schema.TableCheckouts, checkoutID)
	if err != nil {
		tx.Rollback()
		return err
	}
	if _, closed := row["in_time"].(time.Time); closed {
		tx.Rollback()
		return fmt.Errorf("%w: checkout %s already closed", ErrNotCheckedOut, checkoutID)
	}
	co := checkoutFromRow(row)
	if err := tx.Update(schema.TableCheckouts, checkoutID, relstore.Row{"in_time": s.Now()}); err != nil {
		tx.Rollback()
		return err
	}
	// Versions are only ever appended, one per check-in, so the next
	// number is the count so far plus one — answered by the size of
	// the (object_kind, object_id) index bucket, not by reading the
	// component's history.
	recorded, err := tx.Count(relstore.Query{Table: schema.TableVersions, Conds: componentConds(co.ObjectKind, co.ObjectID)})
	if err != nil {
		tx.Rollback()
		return err
	}
	err = tx.Insert(schema.TableVersions, relstore.Row{
		"ver_id":      s.nextID("ver"),
		"object_kind": co.ObjectKind,
		"object_id":   co.ObjectID,
		"version":     int64(recorded) + 1,
		"author":      co.User,
		"comment":     comment,
		"created":     s.Now(),
	})
	if err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// History lists the recorded versions of a component, oldest first.
func (s *Store) History(kind, objectID string) ([]Version, error) {
	rows, err := s.rel.Select(relstore.Query{
		Table:   schema.TableVersions,
		Conds:   componentConds(kind, objectID),
		OrderBy: "version",
	})
	if err != nil {
		return nil, err
	}
	out := make([]Version, len(rows))
	for i, r := range rows {
		out[i] = Version{
			ID:         rowString(r, "ver_id"),
			ObjectKind: rowString(r, "object_kind"),
			ObjectID:   rowString(r, "object_id"),
			Version:    rowInt(r, "version"),
			Author:     rowString(r, "author"),
			Comment:    rowString(r, "comment"),
			Created:    rowTime(r, "created"),
		}
	}
	return out, nil
}
