package minisql

import (
	"fmt"
	"strings"

	"repro/internal/relstore"
)

// Result carries the outcome of executing one statement. SELECT, SHOW
// and DESCRIBE fill Columns/Rows; mutations fill Affected; DDL fills
// Msg.
type Result struct {
	Columns  []string
	Rows     [][]any
	Affected int
	Msg      string
}

// Session executes minisql statements against one relstore database, the
// way the paper's front end holds one open database connection.
type Session struct {
	db *relstore.DB
}

// NewSession wraps a database.
func NewSession(db *relstore.DB) *Session {
	return &Session{db: db}
}

// Exec parses and runs one statement.
func (s *Session) Exec(src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return s.Run(st)
}

// Run executes an already-parsed statement.
func (s *Session) Run(st Statement) (*Result, error) {
	switch st := st.(type) {
	case *CreateTableStmt:
		if err := s.db.CreateTable(st.Schema); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("table %s created", st.Schema.Name)}, nil
	case *CreateIndexStmt:
		if st.Ordered {
			if err := s.db.CreateOrderedIndex(st.Table, st.Column); err != nil {
				return nil, err
			}
			return &Result{Msg: fmt.Sprintf("ordered index on %s(%s) created", st.Table, st.Column)}, nil
		}
		if err := s.db.CreateIndex(st.Table, st.Column); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("index on %s(%s) created", st.Table, st.Column)}, nil
	case *DropTableStmt:
		if err := s.db.DropTable(st.Table); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("table %s dropped", st.Table)}, nil
	case *InsertStmt:
		return s.runInsert(st)
	case *SelectStmt:
		return s.runSelect(st)
	case *UpdateStmt:
		return s.runUpdate(st)
	case *DeleteStmt:
		return s.runDelete(st)
	case *ShowTablesStmt:
		var rows [][]any
		for _, name := range s.db.Tables() {
			rows = append(rows, []any{name})
		}
		return &Result{Columns: []string{"table"}, Rows: rows}, nil
	case *DescribeStmt:
		return s.runDescribe(st)
	default:
		return nil, fmt.Errorf("minisql: unsupported statement %T", st)
	}
}

func (s *Session) runInsert(st *InsertStmt) (*Result, error) {
	// Declaring the statement's table lets unrelated statements run in
	// parallel on the per-table engine.
	tx, err := s.db.Begin(st.Table)
	if err != nil {
		return nil, err
	}
	for _, vals := range st.Rows {
		row := make(relstore.Row, len(st.Columns))
		for i, col := range st.Columns {
			row[col] = vals[i]
		}
		if err := tx.Insert(st.Table, row); err != nil {
			tx.Rollback()
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return &Result{Affected: len(st.Rows)}, nil
}

func (s *Session) runSelect(st *SelectStmt) (*Result, error) {
	rows, err := s.db.Select(relstore.Query{
		Table:   st.Table,
		Conds:   st.Where,
		OrderBy: st.OrderBy,
		Desc:    st.Desc,
		Limit:   st.Limit,
	})
	if err != nil {
		return nil, err
	}
	if st.CountStar {
		return &Result{Columns: []string{"count"}, Rows: [][]any{{int64(len(rows))}}}, nil
	}
	cols := st.Columns
	if cols == nil {
		schema, err := s.db.SchemaOf(st.Table)
		if err != nil {
			return nil, err
		}
		for _, c := range schema.Columns {
			cols = append(cols, c.Name)
		}
	} else {
		schema, err := s.db.SchemaOf(st.Table)
		if err != nil {
			return nil, err
		}
		for _, c := range cols {
			found := false
			for _, sc := range schema.Columns {
				if sc.Name == c {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("%w: %s.%s", relstore.ErrNoColumn, st.Table, c)
			}
		}
	}
	out := make([][]any, len(rows))
	for i, r := range rows {
		vals := make([]any, len(cols))
		for j, c := range cols {
			vals[j] = r[c]
		}
		out[i] = vals
	}
	return &Result{Columns: cols, Rows: out}, nil
}

// matchingKeys returns the primary-key values of rows matching the
// conjunction, in deterministic order.
func (s *Session) matchingKeys(table string, where []relstore.Cond) ([]any, error) {
	schema, err := s.db.SchemaOf(table)
	if err != nil {
		return nil, err
	}
	rows, err := s.db.Select(relstore.Query{Table: table, Conds: where})
	if err != nil {
		return nil, err
	}
	keys := make([]any, len(rows))
	for i, r := range rows {
		keys[i] = r[schema.Key]
	}
	return keys, nil
}

func (s *Session) runUpdate(st *UpdateStmt) (*Result, error) {
	keys, err := s.matchingKeys(st.Table, st.Where)
	if err != nil {
		return nil, err
	}
	changes := relstore.Row(st.Set)
	tx, err := s.db.Begin(st.Table)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := tx.Update(st.Table, k, changes); err != nil {
			tx.Rollback()
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return &Result{Affected: len(keys)}, nil
}

func (s *Session) runDelete(st *DeleteStmt) (*Result, error) {
	keys, err := s.matchingKeys(st.Table, st.Where)
	if err != nil {
		return nil, err
	}
	tx, err := s.db.Begin(st.Table)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := tx.Delete(st.Table, k); err != nil {
			tx.Rollback()
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return &Result{Affected: len(keys)}, nil
}

func (s *Session) runDescribe(st *DescribeStmt) (*Result, error) {
	schema, err := s.db.SchemaOf(st.Table)
	if err != nil {
		return nil, err
	}
	fkByCol := make(map[string]string)
	for _, fk := range schema.ForeignKeys {
		fkByCol[fk.Column] = fk.RefTable
	}
	var rows [][]any
	for _, c := range schema.Columns {
		attrs := []string{}
		if c.Name == schema.Key {
			attrs = append(attrs, "PRIMARY KEY")
		}
		if c.NotNull {
			attrs = append(attrs, "NOT NULL")
		}
		if ref, ok := fkByCol[c.Name]; ok {
			attrs = append(attrs, "REFERENCES "+ref)
		}
		rows = append(rows, []any{c.Name, c.Type.String(), strings.Join(attrs, ", ")})
	}
	return &Result{Columns: []string{"column", "type", "attributes"}, Rows: rows}, nil
}

// Format renders a result as an aligned text table; see FormatCells.
func (r *Result) Format() string {
	return FormatCells(r.Msg, r.Affected, r.Columns, r.Cells())
}

// Cells converts every row value to the text a client displays: NULL
// for a missing value, <N bytes> for a BLOB, fmt.Sprint otherwise. It
// is the form a station's SQL RPC sends back, so every client shows the
// same cell for the same value.
func (r *Result) Cells() [][]string {
	if len(r.Rows) == 0 {
		return nil
	}
	cells := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			switch x := v.(type) {
			case nil:
				cells[i][j] = "NULL"
			case []byte:
				cells[i][j] = fmt.Sprintf("<%d bytes>", len(x))
			default:
				cells[i][j] = fmt.Sprint(x)
			}
		}
	}
	return cells
}

// FormatCells renders a statement's outcome the way the administrative
// CLI prints it: msg when a DDL statement set one, the affected count
// when there are no result columns, and otherwise an aligned text
// table of columns over the already converted cells, closed by a row
// count.
func FormatCells(msg string, affected int, columns []string, cells [][]string) string {
	var sb strings.Builder
	if msg != "" {
		sb.WriteString(msg)
		sb.WriteByte('\n')
		return sb.String()
	}
	if columns == nil {
		fmt.Fprintf(&sb, "%d row(s) affected\n", affected)
		return sb.String()
	}
	widths := make([]int, len(columns))
	for i, c := range columns {
		widths[i] = len(c)
	}
	for _, row := range cells {
		for j, s := range row {
			if j < len(widths) && len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	for i, c := range columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range columns {
		sb.WriteString(strings.Repeat("-", widths[i]))
		sb.WriteString("  ")
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for j, s := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[j], s)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "(%d rows)\n", len(cells))
	return sb.String()
}
