package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/docdb"
	"repro/internal/fabric"
	"repro/internal/relstore"
	"repro/internal/search"
)

// Frozen fabric shape: 7 stations in a full ternary tree (root, three
// interior children, three leaves under the first child), replicating
// on the third remote fetch.
const (
	fabricStations  = 7
	fabricDegree    = 3
	fabricWatermark = 2
)

// station is one durable document store opened the way `webdocd -data`
// opens it: docdb.Open, search.Attach, then Store.Recover on its
// directory (which attaches the WAL tail for appends).
type station struct {
	dir   string
	store *docdb.Store
	index *search.Index
}

func openStation(dir string) (*station, error) {
	store, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		return nil, err
	}
	pinClock(store)
	ix, err := search.Attach(store)
	if err != nil {
		return nil, err
	}
	if _, err := store.Recover(dir); err != nil {
		return nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	return &station{dir: dir, store: store, index: ix}, nil
}

// abandon detaches the WAL file handle without a shutdown checkpoint:
// the process-death model. Every append was already flushed to the
// page cache at commit and nothing is fsynced, so the directory is
// exactly what a SIGKILL would leave (power loss is not modelled).
func (s *station) abandon() error { return s.store.Rel().CloseWAL() }

// host is the durable fabric every fabric workload runs against,
// in-process on loopback TCP, with one admin client (a two-connection
// pool) per station.
type host struct {
	stations []*fabric.Station // index 0 is the root (position 1)
	nodes    []*station
	admins   []*fabric.Admin
}

func startHost(dir string) (*host, error) {
	h := &host{}
	for i := 0; i < fabricStations; i++ {
		node, err := openStation(filepath.Join(dir, fmt.Sprintf("station-%d", i+1)))
		if err != nil {
			h.close()
			return nil, err
		}
		h.nodes = append(h.nodes, node)
		var st *fabric.Station
		if i == 0 {
			st, err = fabric.NewRoot(node.store, "127.0.0.1:0", fabricDegree, fabricWatermark)
		} else {
			// Sequential joins, so linear positions are 2..7 in order.
			st, err = fabric.Join(node.store, "127.0.0.1:0", h.stations[0].Addr())
		}
		if err != nil {
			h.close()
			return nil, fmt.Errorf("starting station %d: %w", i+1, err)
		}
		h.stations = append(h.stations, st)
		h.admins = append(h.admins, fabric.DialAdmin(st.Addr()))
	}
	return h, nil
}

func (h *host) root() *station { return h.nodes[0] }

// close tears the fabric down, root last, and releases the WAL files.
func (h *host) close() {
	for _, a := range h.admins {
		a.Close()
	}
	for i := len(h.stations) - 1; i >= 0; i-- {
		h.stations[i].Close()
	}
	for _, n := range h.nodes {
		n.abandon()
	}
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// sidecarPath names a checkpoint generation's BLOB or search sidecar
// (prefix "blobs" or "search") in a data directory.
func sidecarPath(dir, prefix string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%010d", prefix, gen))
}

// checkpointBytes is what one checkpoint generation put on disk: the
// relational snapshot and both sidecars.
func checkpointBytes(dir string, info *relstore.CheckpointInfo) int64 {
	return info.Bytes + fileBytes(sidecarPath(dir, "blobs", info.Gen)) + fileBytes(sidecarPath(dir, "search", info.Gen))
}

// fileBytes is the size of one file, zero when absent.
func fileBytes(path string) int64 {
	if fi, err := os.Stat(path); err == nil {
		return fi.Size()
	}
	return 0
}

// copyDir copies the regular files of src into a fresh dst. The files
// are scratch copies of a data directory the benchmark still holds, so
// they are written plainly, without the station's fsync protocol.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// fsName names the filesystem holding dir (by statfs magic), so a
// report says whether its fsyncs hit a disk, an overlay or tmpfs.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	default:
		return "0x" + strings.ToLower(fmt.Sprintf("%X", uint32(st.Type)))
	}
}

// wireCount is a station set's transport accounting: calls served and
// bytes moved on the station sockets since the stations started.
type wireCount struct{ calls, bytes int64 }

func nodeWire(nodes ...*cluster.Node) wireCount {
	var w wireCount
	for _, n := range nodes {
		s := n.StatsNow()
		for _, c := range s.Ops {
			w.calls += c
		}
		w.bytes += s.BytesIn + s.BytesOut
	}
	return w
}

func (h *host) wire() wireCount {
	nodes := make([]*cluster.Node, len(h.stations))
	for i, st := range h.stations {
		nodes[i] = st.Node()
	}
	return nodeWire(nodes...)
}

// wireLedger differences the transport accounting across a window:
// RPCs served per attempted op and socket bytes per byte of user
// payload. Both are counts, not timings.
func wireLedger(res *result, before, after wireCount, ops, userBytes int64) {
	if ops > 0 {
		res.layer("transport.calls_per_op", float64(after.calls-before.calls)/float64(ops), "calls/op", int(ops))
	}
	if userBytes > 0 {
		res.layer("transport.wire_bytes_per_user_byte", float64(after.bytes-before.bytes)/float64(userBytes), "ratio", int(userBytes))
	}
}
