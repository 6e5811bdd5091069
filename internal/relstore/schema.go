// Package relstore is an embedded relational storage engine. It stands in
// for the off-the-rack relational DBMS (MS SQL Server behind ODBC/JDBC)
// that the paper uses underneath its Web document database: typed
// schemas, single-column primary keys, hash secondary indexes (over one
// or several columns, optionally partial: only the rows whose given
// column IS NULL), foreign
// keys, transactions with undo, and durability through generation
// checkpoints plus a write-ahead log, which OpenDurable alone loads and
// attaches — the narrow slice of SQL-server behaviour the document
// layer in section 3 of the paper actually relies on.
//
// Inside the engine a row is a tuple: one value per column, at the
// position its table's catalog (the layout, built once per table)
// assigns. Row, a column-name map, is the API type only — callers hand
// one in and get fresh ones back, and recovery decodes each stored row
// straight into its tuple without ever building a map.
package relstore

import (
	"errors"
	"fmt"
	"time"
)

// ColType enumerates the column types supported by the engine.
type ColType int

// Supported column types. TTime values are time.Time, TBytes are []byte,
// TInt are int64 (smaller integer types are widened on insert).
const (
	TInt ColType = iota + 1
	TFloat
	TText
	TBytes
	TBool
	TTime
)

// String returns the SQL-ish name of the type.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TText:
		return "TEXT"
	case TBytes:
		return "BYTES"
	case TBool:
		return "BOOL"
	case TTime:
		return "TIME"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// ParseColType converts a SQL-ish type name to a ColType.
func ParseColType(s string) (ColType, error) {
	switch s {
	case "INT", "INTEGER":
		return TInt, nil
	case "FLOAT", "REAL", "DOUBLE":
		return TFloat, nil
	case "TEXT", "VARCHAR", "STRING":
		return TText, nil
	case "BYTES", "BLOB":
		return TBytes, nil
	case "BOOL", "BOOLEAN":
		return TBool, nil
	case "TIME", "DATETIME", "TIMESTAMP":
		return TTime, nil
	default:
		return 0, fmt.Errorf("relstore: unknown column type %q", s)
	}
}

// Column describes one attribute of a table.
type Column struct {
	Name    string
	Type    ColType
	NotNull bool
}

// ForeignKey declares that a column holds primary-key values of another
// table, mirroring the "foreign key to the ... table" attributes in the
// paper's Script/Implementation/TestRecord/BugReport/Annotation tables.
type ForeignKey struct {
	Column   string // local column holding the reference
	RefTable string // table whose primary key is referenced
}

// Schema is the definition of one table.
type Schema struct {
	Name        string
	Columns     []Column
	Key         string // name of the primary-key column
	ForeignKeys []ForeignKey
}

// Row maps column names to values: the engine's API type for a row.
// Missing columns read as NULL (nil). A Row the engine returns lists
// only the non-NULL columns, so row[col] == nil is exactly "col is
// NULL"; it is a fresh map the caller may keep and modify.
type Row map[string]any

// Engine-level errors. Errors wrapping these can be tested with
// errors.Is.
var (
	ErrNoTable     = errors.New("relstore: no such table")
	ErrTableExists = errors.New("relstore: table already exists")
	ErrNoColumn    = errors.New("relstore: no such column")
	ErrDuplicate   = errors.New("relstore: duplicate primary key")
	ErrNotFound    = errors.New("relstore: row not found")
	ErrType        = errors.New("relstore: value does not match column type")
	ErrNull        = errors.New("relstore: NULL in NOT NULL column")
	ErrFK          = errors.New("relstore: foreign key violation")
	ErrSchema      = errors.New("relstore: invalid schema")
	ErrTxDone      = errors.New("relstore: transaction already finished")
	ErrKeyChange   = errors.New("relstore: primary key of a row cannot be updated")
	ErrUndeclared  = errors.New("relstore: table not declared at Begin")
	ErrWALOpen     = errors.New("relstore: a write-ahead log is already attached")

	// ErrPrePositional reports a snapshot or WAL record written while
	// rows named their columns instead of giving their positions. No
	// reader for that grammar remains; the README's upgrade paragraph
	// says what a station does with such a directory.
	ErrPrePositional = errors.New("relstore: file uses the pre-positional row format")
)

// validate checks the schema for structural problems.
func (s *Schema) validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: empty table name", ErrSchema)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("%w: table %s has no columns", ErrSchema, s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("%w: table %s has an unnamed column", ErrSchema, s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: table %s repeats column %s", ErrSchema, s.Name, c.Name)
		}
		if c.Type < TInt || c.Type > TTime {
			return fmt.Errorf("%w: table %s column %s has invalid type", ErrSchema, s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if s.Key == "" {
		return fmt.Errorf("%w: table %s has no primary key", ErrSchema, s.Name)
	}
	if !seen[s.Key] {
		return fmt.Errorf("%w: table %s primary key %s is not a column", ErrSchema, s.Name, s.Key)
	}
	for _, fk := range s.ForeignKeys {
		if !seen[fk.Column] {
			return fmt.Errorf("%w: table %s foreign key on unknown column %s", ErrSchema, s.Name, fk.Column)
		}
		if fk.RefTable == "" {
			return fmt.Errorf("%w: table %s foreign key on %s has no target", ErrSchema, s.Name, fk.Column)
		}
	}
	return nil
}

// coerce normalizes a caller-supplied value to the canonical in-engine
// representation for the column type (int64, float64, string, []byte,
// bool, time.Time in UTC with no monotonic reading), or reports
// ErrType. A value already in canonical form is returned as the
// caller's interface value, not boxed again.
func coerce(t ColType, v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TInt:
		switch x := v.(type) {
		case int64:
			return v, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case uint32:
			return int64(x), nil
		case float64:
			// JSON round-trips integers as float64; accept exact ones.
			if x == float64(int64(x)) {
				return int64(x), nil
			}
		}
	case TFloat:
		switch x := v.(type) {
		case float64:
			return v, nil
		case float32:
			return float64(x), nil
		case int:
			return float64(x), nil
		case int64:
			return float64(x), nil
		}
	case TText:
		if _, ok := v.(string); ok {
			return v, nil
		}
	case TBytes:
		if _, ok := v.([]byte); ok {
			return v, nil
		}
		if x, ok := v.(string); ok {
			return []byte(x), nil
		}
	case TBool:
		if _, ok := v.(bool); ok {
			return v, nil
		}
	case TTime:
		// Stored the way recovery and a bundle import read it back, so
		// a live row and its recovered or imported copy are one value.
		switch x := v.(type) {
		case time.Time:
			if ts := x.Round(0).UTC(); ts != x {
				return ts, nil
			}
			return v, nil
		case string:
			ts, err := time.Parse(time.RFC3339Nano, x)
			if err == nil {
				return ts.UTC(), nil
			}
		case int64:
			return time.Unix(0, x).UTC(), nil
		}
	}
	return nil, fmt.Errorf("%w: %T is not %s", ErrType, v, t)
}
