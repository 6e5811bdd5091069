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

// decodeCkptImage reverses appendCkptImage. Each table's rows decode
// straight into tuples, through dec, against the schema read just
// before them.
func decodeCkptImage(payload []byte, dec *rowDecoder) (*ckptImage, error) {
	r := wire.NewReader(payload)
	img := &ckptImage{Gen: r.Uvarint(), Seq: r.Uvarint()}
	nschemas := r.Count()
	for i := 0; i < nschemas && r.Err() == nil; i++ {
		st := snapTable{layout: newLayout(readSchema(r))}
		nrows := r.Count()
		st.rows = make([]tuple, 0, nrows)
		for j := 0; j < nrows && r.Err() == nil; j++ {
			tp, err := dec.tuple(r, st.layout)
			if err != nil {
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
