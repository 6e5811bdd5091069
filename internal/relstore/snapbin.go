package relstore

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// Binary checkpoint image payload, sealed under wire.SnapMagic:
//
//	[uvarint Gen][uvarint Seq][uvarint nschemas]
//	  per schema: [schema][uvarint nrows rows][indexed strs][ordered strs]
//
// Rows carry tagged wire values, so a checkpoint of BLOB-bearing
// tables is a flat byte copy.

// appendCkptImage encodes img after dst.
func appendCkptImage(dst []byte, img *ckptImage) ([]byte, error) {
	dst = wire.AppendUvarint(dst, img.Gen)
	dst = wire.AppendUvarint(dst, img.Seq)
	dst = wire.AppendUvarint(dst, uint64(len(img.Snap.Schemas)))
	for _, s := range img.Snap.Schemas {
		dst = appendSchema(dst, &s)
		rows := img.Snap.Rows[s.Name]
		dst = wire.AppendUvarint(dst, uint64(len(rows)))
		for _, row := range rows {
			dst = wire.AppendUvarint(dst, uint64(len(row)))
			cols := make([]string, 0, len(row))
			for k := range row {
				cols = append(cols, k)
			}
			sort.Strings(cols)
			for _, k := range cols {
				dst = wire.AppendString(dst, k)
				var err error
				if dst, err = wire.AppendValue(dst, row[k]); err != nil {
					return nil, fmt.Errorf("relstore: snapshot %s.%s: %w", s.Name, k, err)
				}
			}
		}
		dst = appendStrings(dst, img.Snap.Indexed[s.Name])
		dst = appendStrings(dst, img.Snap.Ordered[s.Name])
	}
	return dst, nil
}

// decodeCkptImage reverses appendCkptImage.
func decodeCkptImage(payload []byte) (*ckptImage, error) {
	r := wire.NewReader(payload)
	img := &ckptImage{Gen: r.Uvarint(), Seq: r.Uvarint()}
	img.Snap = snapshot{
		Rows:    map[string][]Row{},
		Indexed: map[string][]string{},
		Ordered: map[string][]string{},
	}
	nschemas := r.Count()
	for i := 0; i < nschemas && r.Err() == nil; i++ {
		s := readSchema(r)
		img.Snap.Schemas = append(img.Snap.Schemas, s)
		nrows := r.Count()
		rows := make([]Row, 0, nrows)
		for j := 0; j < nrows && r.Err() == nil; j++ {
			ncol := r.Count()
			row := make(Row, ncol)
			for k := 0; k < ncol && r.Err() == nil; k++ {
				row[r.String()] = r.Value()
			}
			rows = append(rows, row)
		}
		img.Snap.Rows[s.Name] = rows
		if idx := readStrings(r); len(idx) > 0 {
			img.Snap.Indexed[s.Name] = idx
		}
		if ord := readStrings(r); len(ord) > 0 {
			img.Snap.Ordered[s.Name] = ord
		}
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
