package docdb

// Row readers only this package's tests use: the station serves these
// tables through SQL and the bundle codec, not through typed lists.

import (
	"time"

	"repro/internal/schema"
)

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

// TestRecords lists the test records of a script.
func (s *Store) TestRecords(scriptName string) ([]TestRecord, error) {
	rows, err := s.rel.Lookup(schema.TableTestRecords, "script_name", scriptName)
	if err != nil {
		return nil, err
	}
	out := make([]TestRecord, len(rows))
	for i, r := range rows {
		out[i] = TestRecord{
			Name:        rowString(r, "test_name"),
			ScriptName:  rowString(r, "script_name"),
			StartingURL: rowString(r, "starting_url"),
			Scope:       rowString(r, "scope"),
			Messages:    schema.SplitList(rowString(r, "messages")),
			Created:     rowTime(r, "created"),
		}
	}
	return out, nil
}

// BugReports lists the bug reports filed against a test record.
func (s *Store) BugReports(testName string) ([]BugReport, error) {
	rows, err := s.rel.Lookup(schema.TableBugReports, "test_name", testName)
	if err != nil {
		return nil, err
	}
	out := make([]BugReport, len(rows))
	for i, r := range rows {
		out[i] = BugReport{
			Name:             rowString(r, "bug_name"),
			TestName:         rowString(r, "test_name"),
			QAEngineer:       rowString(r, "qa_engineer"),
			Procedure:        rowString(r, "procedure"),
			Description:      rowString(r, "description"),
			BadURLs:          schema.SplitList(rowString(r, "bad_urls")),
			MissingObjects:   schema.SplitList(rowString(r, "missing_objects")),
			Inconsistency:    rowString(r, "inconsistency"),
			RedundantObjects: schema.SplitList(rowString(r, "redundant_objects")),
			Created:          rowTime(r, "created"),
		}
	}
	return out, nil
}

// Outstanding lists a user's open checkouts.
func (s *Store) Outstanding(user string) ([]Checkout, error) {
	rows, err := s.rel.Lookup(schema.TableCheckouts, "user", user)
	if err != nil {
		return nil, err
	}
	var out []Checkout
	for _, r := range rows {
		if _, closed := r["in_time"].(time.Time); !closed {
			out = append(out, checkoutFromRow(r))
		}
	}
	return out, nil
}

// CheckoutsOf lists every checkout (open and closed) of one object,
// feeding the virtual library's assessment criteria.
func (s *Store) CheckoutsOf(kind, objectID string) ([]Checkout, error) {
	rows, err := s.rel.Lookup(schema.TableCheckouts, "object_id", objectID)
	if err != nil {
		return nil, err
	}
	var out []Checkout
	for _, r := range rows {
		if rowString(r, "object_kind") == kind {
			out = append(out, checkoutFromRow(r))
		}
	}
	return out, nil
}
