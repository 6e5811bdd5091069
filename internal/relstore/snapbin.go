package relstore

import (
	"fmt"

	"repro/internal/wire"
)

// Binary checkpoint image payload, sealed under wire.SnapMagic:
//
//	[uvarint Gen][uvarint Seq][uvarint nschemas]
//	  per schema: [schema][uvarint nrows rows][indexed strs][ordered strs]
//
// Rows are in the (position, value)-pair grammar of tuple.go: each
// position indexes the columns of the schema written just before the
// rows, and the values are tagged wire values, so a checkpoint of
// BLOB-bearing tables is a flat byte copy. Snapshots sealed under the
// retired magic nameKeyedSnapMagic named each column instead; they are
// refused with ErrPrePositional.

// appendCkptImage encodes img after dst.
func appendCkptImage(dst []byte, img *ckptImage) ([]byte, error) {
	dst = wire.AppendUvarint(dst, img.Gen)
	dst = wire.AppendUvarint(dst, img.Seq)
	dst = wire.AppendUvarint(dst, uint64(len(img.Snap.Tables)))
	for _, st := range img.Snap.Tables {
		dst = appendSchema(dst, &st.schema)
		dst = wire.AppendUvarint(dst, uint64(len(st.rows)))
		for _, tp := range st.rows {
			var err error
			if dst, err = st.appendTuple(dst, tp); err != nil {
				return nil, fmt.Errorf("relstore: snapshot %w", err)
			}
		}
		dst = appendStrings(dst, st.indexed)
		dst = appendStrings(dst, st.ordered)
	}
	return dst, nil
}

// slabValues bounds the values one slab of decoded snapshot rows
// holds (16 bytes each, so 128 KiB). A row may be a single byte on
// disk however many columns its table has, so a slab sized from the
// row count alone would let a small hostile image reserve far more
// memory than its rows could; a table larger than one slab takes
// several.
const slabValues = 8192

// decodeCkptImage reverses appendCkptImage. Each table's rows decode
// straight into tuples, through dec, against the schema read just
// before them. The tuples are carved from one slab per table (or per
// slabValues values), each capped at its own length so that no append
// can reach into the next row.
func decodeCkptImage(payload []byte, dec *rowDecoder) (*ckptImage, error) {
	r := wire.NewReader(payload)
	img := &ckptImage{Gen: r.Uvarint(), Seq: r.Uvarint()}
	nschemas := r.Count()
	for i := 0; i < nschemas && r.Err() == nil; i++ {
		st := snapTable{layout: newLayout(readSchema(r))}
		ncol := len(st.schema.Columns)
		perSlab := max(1, slabValues/max(1, ncol))
		nrows := r.Count()
		st.rows = make([]tuple, 0, nrows)
		var slab []any
		for j := 0; j < nrows && r.Err() == nil; j++ {
			if len(slab) == 0 {
				// Every row left takes at least a byte of what is left.
				slab = make([]any, min(nrows-j, max(1, r.Len()), perSlab)*ncol)
			}
			tp := tuple(slab[:ncol:ncol])
			slab = slab[ncol:]
			if err := dec.tupleInto(r, st.layout, tp); err != nil {
				return nil, fmt.Errorf("relstore: corrupt snapshot: %w", err)
			}
			st.rows = append(st.rows, tp)
		}
		st.indexed = readStrings(r)
		st.ordered = readStrings(r)
		img.Snap.Tables = append(img.Snap.Tables, st)
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("relstore: corrupt snapshot: %w", r.Err())
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("relstore: corrupt snapshot: %d trailing bytes", r.Len())
	}
	return img, nil
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = wire.AppendString(dst, s)
	}
	return dst
}

func readStrings(r *wire.Reader) []string {
	n := r.Count()
	var ss []string
	for i := 0; i < n && r.Err() == nil; i++ {
		ss = append(ss, r.String())
	}
	return ss
}
