package minisql

import (
	"strconv"
	"strings"

	"repro/internal/relstore"
)

// Statement is the parsed form of one SQL statement.
type Statement interface{ stmtNode() }

// CreateTableStmt mirrors relstore.Schema.
type CreateTableStmt struct {
	Schema relstore.Schema
}

// CreateIndexStmt adds a secondary index; Ordered selects a range
// (ordered) index instead of the default hash index.
type CreateIndexStmt struct {
	Table   string
	Column  string
	Ordered bool
}

// DropTableStmt removes a table.
type DropTableStmt struct {
	Table string
}

// InsertStmt adds one or more rows.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]any
}

// SelectStmt is a single-table selection. CountStar selects the
// aggregate row count instead of columns.
type SelectStmt struct {
	Table     string
	Columns   []string // nil means *
	CountStar bool
	Where     []relstore.Cond
	OrderBy   string
	Desc      bool
	Limit     int
}

// UpdateStmt merges column assignments into matching rows.
type UpdateStmt struct {
	Table string
	Set   map[string]any
	Where []relstore.Cond
}

// DeleteStmt removes matching rows.
type DeleteStmt struct {
	Table string
	Where []relstore.Cond
}

// ShowTablesStmt lists relations.
type ShowTablesStmt struct{}

// DescribeStmt reports a table's schema.
type DescribeStmt struct {
	Table string
}

func (*CreateTableStmt) stmtNode() {}
func (*CreateIndexStmt) stmtNode() {}
func (*DropTableStmt) stmtNode()   {}
func (*InsertStmt) stmtNode()      {}
func (*SelectStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*ShowTablesStmt) stmtNode()  {}
func (*DescribeStmt) stmtNode()    {}

type parser struct {
	toks []token
	i    int
}

// Parse turns one SQL statement into its AST. A trailing semicolon is
// allowed.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokPunct, ";")
	if p.cur().kind != tokEOF {
		return nil, errf(p.cur().pos, "unexpected trailing input %q", p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) accept(kind tokenKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	if kind == tokIdent && !strings.EqualFold(t.text, text) {
		return false
	}
	if kind == tokPunct && t.text != text {
		return false
	}
	p.i++
	return true
}

func (p *parser) expectKeyword(kw string) error {
	if !p.accept(tokIdent, kw) {
		return errf(p.cur().pos, "expected %s, found %q", strings.ToUpper(kw), p.cur().text)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	if !p.accept(tokPunct, s) {
		return errf(p.cur().pos, "expected %q, found %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", errf(t.pos, "expected identifier, found %q", t.text)
	}
	p.i++
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	t := p.cur()
	switch {
	case isKeyword(t, "CREATE"):
		p.i++
		if isKeyword(p.cur(), "TABLE") {
			p.i++
			return p.createTable()
		}
		if isKeyword(p.cur(), "INDEX") {
			p.i++
			return p.createIndex(false)
		}
		if isKeyword(p.cur(), "ORDERED") {
			p.i++
			if err := p.expectKeyword("INDEX"); err != nil {
				return nil, err
			}
			return p.createIndex(true)
		}
		return nil, errf(p.cur().pos, "expected TABLE, INDEX or ORDERED INDEX after CREATE")
	case isKeyword(t, "DROP"):
		p.i++
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Table: name}, nil
	case isKeyword(t, "INSERT"):
		p.i++
		return p.insert()
	case isKeyword(t, "SELECT"):
		p.i++
		return p.selectStmt()
	case isKeyword(t, "UPDATE"):
		p.i++
		return p.update()
	case isKeyword(t, "DELETE"):
		p.i++
		return p.deleteStmt()
	case isKeyword(t, "SHOW"):
		p.i++
		if err := p.expectKeyword("TABLES"); err != nil {
			return nil, err
		}
		return &ShowTablesStmt{}, nil
	case isKeyword(t, "DESCRIBE"):
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DescribeStmt{Table: name}, nil
	default:
		return nil, errf(t.pos, "unknown statement %q", t.text)
	}
}

// createTable parses:
//
//	CREATE TABLE t (col TYPE [NOT NULL], ...,
//	                PRIMARY KEY (col),
//	                [FOREIGN KEY (col) REFERENCES other, ...])
func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	s := relstore.Schema{Name: name}
	for {
		switch {
		case isKeyword(p.cur(), "PRIMARY"):
			p.i++
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			s.Key = col
		case isKeyword(p.cur(), "FOREIGN"):
			p.i++
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.ForeignKeys = append(s.ForeignKeys, relstore.ForeignKey{Column: col, RefTable: ref})
		default:
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			typTok := p.cur()
			typName, err := p.ident()
			if err != nil {
				return nil, err
			}
			ct, err := relstore.ParseColType(strings.ToUpper(typName))
			if err != nil {
				return nil, errf(typTok.pos, "%v", err)
			}
			c := relstore.Column{Name: col, Type: ct}
			if isKeyword(p.cur(), "NOT") {
				p.i++
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				c.NotNull = true
			}
			s.Columns = append(s.Columns, c)
		}
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Schema: s}, nil
}

// createIndex parses: CREATE [ORDERED] INDEX ON t (col)
func (p *parser) createIndex(ordered bool) (Statement, error) {
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Table: table, Column: col, Ordered: ordered}, nil
}

// insert parses: INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')
func (p *parser) insert() (Statement, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]any
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var vals []any
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if len(vals) != len(cols) {
			return nil, errf(p.cur().pos, "row has %d values for %d columns", len(vals), len(cols))
		}
		rows = append(rows, vals)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	return &InsertStmt{Table: table, Columns: cols, Rows: rows}, nil
}

func (p *parser) selectStmt() (Statement, error) {
	st := &SelectStmt{}
	if p.accept(tokPunct, "*") {
		st.Columns = nil
	} else if isKeyword(p.cur(), "COUNT") {
		p.i++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectPunct("*"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		st.CountStar = true
	} else {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if isKeyword(p.cur(), "WHERE") {
		p.i++
		conds, err := p.whereConds()
		if err != nil {
			return nil, err
		}
		st.Where = conds
	}
	if isKeyword(p.cur(), "ORDER") {
		p.i++
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.OrderBy = col
		if isKeyword(p.cur(), "DESC") {
			p.i++
			st.Desc = true
		} else if isKeyword(p.cur(), "ASC") {
			p.i++
		}
	}
	if isKeyword(p.cur(), "LIMIT") {
		p.i++
		t := p.cur()
		if t.kind != tokNumber {
			return nil, errf(t.pos, "expected number after LIMIT")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, errf(t.pos, "bad LIMIT %q", t.text)
		}
		p.i++
		st.Limit = n
	}
	return st, nil
}

func (p *parser) update() (Statement, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	set := make(map[string]any)
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		set[col] = v
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	st := &UpdateStmt{Table: table, Set: set}
	if isKeyword(p.cur(), "WHERE") {
		p.i++
		conds, err := p.whereConds()
		if err != nil {
			return nil, err
		}
		st.Where = conds
	}
	return st, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if isKeyword(p.cur(), "WHERE") {
		p.i++
		conds, err := p.whereConds()
		if err != nil {
			return nil, err
		}
		st.Where = conds
	}
	return st, nil
}

// whereConds parses: col OP literal [AND col OP literal ...]
func (p *parser) whereConds() ([]relstore.Cond, error) {
	var conds []relstore.Cond
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		opTok := p.cur()
		var op relstore.CmpOp
		switch {
		case p.accept(tokPunct, "="):
			op = relstore.OpEq
		case p.accept(tokPunct, "!="), p.accept(tokPunct, "<>"):
			op = relstore.OpNe
		case p.accept(tokPunct, "<="):
			op = relstore.OpLe
		case p.accept(tokPunct, ">="):
			op = relstore.OpGe
		case p.accept(tokPunct, "<"):
			op = relstore.OpLt
		case p.accept(tokPunct, ">"):
			op = relstore.OpGt
		case isKeyword(opTok, "CONTAINS"):
			p.i++
			op = relstore.OpContains
		case isKeyword(opTok, "PREFIX"):
			p.i++
			op = relstore.OpPrefix
		case isKeyword(opTok, "IS"):
			p.i++
			if isKeyword(p.cur(), "NOT") {
				p.i++
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				conds = append(conds, relstore.Cond{Col: col, Op: relstore.OpNotNull})
			} else {
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				conds = append(conds, relstore.Cond{Col: col, Op: relstore.OpIsNull})
			}
			if isKeyword(p.cur(), "AND") {
				p.i++
				continue
			}
			return conds, nil
		default:
			return nil, errf(opTok.pos, "expected comparison operator, found %q", opTok.text)
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		conds = append(conds, relstore.Cond{Col: col, Op: op, Val: v})
		if isKeyword(p.cur(), "AND") {
			p.i++
			continue
		}
		break
	}
	return conds, nil
}

// literal parses a number, string, TRUE/FALSE or NULL token.
func (p *parser) literal() (any, error) {
	t := p.cur()
	switch {
	case t.kind == tokString:
		p.i++
		return t.text, nil
	case t.kind == tokNumber:
		p.i++
		if !strings.ContainsAny(t.text, ".eE") {
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err == nil {
				return n, nil
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errf(t.pos, "bad number %q", t.text)
		}
		return f, nil
	case isKeyword(t, "TRUE"):
		p.i++
		return true, nil
	case isKeyword(t, "FALSE"):
		p.i++
		return false, nil
	case isKeyword(t, "NULL"):
		p.i++
		return nil, nil
	default:
		return nil, errf(t.pos, "expected literal, found %q", t.text)
	}
}
