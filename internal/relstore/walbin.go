package relstore

import (
	"fmt"

	"repro/internal/wire"
)

// Binary WAL record payload. A committed transaction frames one of
// these through wire.AppendRecord:
//
//	[uvarint Seq][flags][uvarint nrecs]
//	  per rec: [op][table string][PK value]
//	           [row? nrow {uvarint position, value}...] (tuple.go's row grammar)
//	           [ddl? {name, key, cols{name, type, notnull}, fks{col, ref}}]
//
// A row's positions index the table's layout at that point of the
// replay: the schema of its CREATE TABLE, in the snapshot or earlier
// in the log. Values use the wire tagged-value codec, so a document
// body is its raw bytes on disk and replay never touches reflection.
//
// Every record sets walFlagPositional. The record framing is shared
// with the fabric's state stream and keeps its bytes, so this flag is
// the WAL's format version: a record without it was written while
// rows named their columns, and replay refuses it with
// ErrPrePositional.

const (
	walFlagCommit     = 1 << 0
	walFlagPositional = 1 << 1
)

// walOp is a redo record's operation: the byte the record stores.
type walOp byte

const (
	walOpInsert walOp = 1
	walOpUpdate walOp = 2
	walOpDelete walOp = 3
	walOpCreate walOp = 4
	walOpDrop   walOp = 5
)

func (op walOp) valid() bool { return op >= walOpInsert && op <= walOpDrop }

func (op walOp) String() string {
	if op.valid() {
		return [...]string{"insert", "update", "delete", "create", "drop"}[op-1]
	}
	return fmt.Sprintf("op byte %d", byte(op))
}

// appendWalLine encodes one committed transaction after dst.
func appendWalLine(dst []byte, line *walLine) ([]byte, error) {
	dst = wire.AppendUvarint(dst, line.Seq)
	flags := byte(walFlagPositional)
	if line.Commit {
		flags |= walFlagCommit
	}
	dst = append(dst, flags)
	dst = wire.AppendUvarint(dst, uint64(len(line.Recs)))
	for _, rec := range line.Recs {
		dst = append(dst, byte(rec.Op))
		dst = wire.AppendString(dst, rec.Table)
		var err error
		if dst, err = wire.AppendValue(dst, rec.PK); err != nil {
			return nil, fmt.Errorf("relstore: WAL %s PK: %w", rec.Table, err)
		}
		// Position order keeps the encoding deterministic, so identical
		// transactions produce identical bytes.
		switch {
		case rec.Tup != nil:
			dst, err = rec.lay.appendTuple(append(dst, 1), rec.Tup)
		case rec.Row != nil:
			dst, err = rec.lay.appendChanges(append(dst, 1), rec.Row)
		default:
			dst = append(dst, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("relstore: WAL %w", err)
		}
		if rec.DDL == nil {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			dst = appendSchema(dst, rec.DDL)
		}
	}
	return dst, nil
}

// minWalRecBytes is the least one redo entry takes: its op, an empty
// table name, a NULL primary key and the two absent-section bytes.
const minWalRecBytes = 5

// decodeWalLine reverses appendWalLine. A record's row decodes against
// the layout layoutOf reports for its table: an insert's into a tuple,
// an update's into its change set. The table name and the primary key
// go through dec's interner, so they share the strings the rows repeat.
func decodeWalLine(payload []byte, dec *rowDecoder, layoutOf func(table string) (*layout, error)) (walLine, error) {
	r := wire.NewReader(payload)
	line := walLine{Seq: r.Uvarint()}
	flags := r.Byte()
	if r.Err() == nil && flags&walFlagPositional == 0 {
		return line, fmt.Errorf("%w: WAL record %d", ErrPrePositional, line.Seq)
	}
	line.Commit = flags&walFlagCommit != 0
	n := r.Count()
	line.Recs = make([]walRec, 0, min(n, r.Len()/minWalRecBytes))
	for i := 0; i < n && r.Err() == nil; i++ {
		rec := walRec{Op: walOp(r.Byte())}
		if !rec.Op.valid() && r.Err() == nil {
			return line, fmt.Errorf("relstore: corrupt WAL record: %v", rec.Op)
		}
		rec.Table = r.StringIn(&dec.strs)
		rec.PK = r.ValueIn(&dec.strs)
		if r.Byte() == 1 {
			lay, err := layoutOf(rec.Table)
			if err != nil {
				return line, err
			}
			if rec.Op == walOpInsert {
				rec.Tup, err = dec.tuple(r, lay)
			} else {
				rec.Row, err = dec.changes(r, lay)
			}
			if err != nil {
				return line, fmt.Errorf("relstore: corrupt WAL record: %w", err)
			}
		}
		if r.Byte() == 1 {
			s := readSchema(r)
			rec.DDL = &s
		}
		line.Recs = append(line.Recs, rec)
	}
	if r.Err() != nil {
		return line, fmt.Errorf("relstore: corrupt WAL record: %w", r.Err())
	}
	if r.Len() != 0 {
		return line, fmt.Errorf("relstore: corrupt WAL record: %d trailing bytes", r.Len())
	}
	return line, nil
}

func appendSchema(dst []byte, s *Schema) []byte {
	dst = wire.AppendString(dst, s.Name)
	dst = wire.AppendString(dst, s.Key)
	dst = wire.AppendUvarint(dst, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		dst = wire.AppendString(dst, c.Name)
		dst = wire.AppendUvarint(dst, uint64(c.Type))
		if c.NotNull {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.ForeignKeys)))
	for _, fk := range s.ForeignKeys {
		dst = wire.AppendString(dst, fk.Column)
		dst = wire.AppendString(dst, fk.RefTable)
	}
	return dst
}

func readSchema(r *wire.Reader) Schema {
	s := Schema{Name: r.String(), Key: r.String()}
	ncol := r.Count()
	for i := 0; i < ncol && r.Err() == nil; i++ {
		s.Columns = append(s.Columns, Column{
			Name:    r.String(),
			Type:    ColType(r.Uvarint()),
			NotNull: r.Byte() == 1,
		})
	}
	nfk := r.Count()
	for i := 0; i < nfk && r.Err() == nil; i++ {
		s.ForeignKeys = append(s.ForeignKeys, ForeignKey{
			Column:   r.String(),
			RefTable: r.String(),
		})
	}
	return s
}
