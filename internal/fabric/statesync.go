package fabric

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/docdb"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Checkpoint streaming for rejoin catch-up. The per-entry catch-up
// path costs one Refs RPC plus (for full broadcasts) one parent-route
// resolve per missed document — O(history) round trips for a station
// that was dark through a busy stretch. When the rejoiner is far
// enough behind the broadcast catalog it instead asks the root for a
// state snapshot: one consistent image of every missed document
// (metadata closures, plus media bytes when the watermark policy will
// materialize them anyway), streamed over the transport's chunked
// response path in a single call — O(state), independent of how many
// broadcasts were missed.

// catchUpStreamThreshold is how many missed catalog entries count as
// "too far behind": at or above it, catch-up pulls the root's state
// snapshot in one stream instead of walking entry by entry.
const catchUpStreamThreshold = 3

// StateRequest asks the root for a state snapshot of the given catalog
// URLs. WantMedia requests full bundles for full-broadcast entries
// (the rejoiner sets it when its watermark materializes first
// fetches); otherwise every entry ships as its metadata closure only.
type StateRequest struct {
	URLs      []string
	WantMedia bool
}

// stateDoc is one document inside a streamed state snapshot. The
// stream is a sequence of wire records (wire.AppendRecord), one
// body-encoded stateDoc each — its bundle through the bundle codec —
// so neither end ever materializes more than one document beyond the
// transport chunks in flight.
type stateDoc struct {
	Entry  CatalogEntry
	Bundle docdb.Bundle
}

// handleState serves a state snapshot from the root's store: the
// authoritative copy of every broadcast document, assembled for the
// requested URLs and streamed back in transport chunks (the returned
// reader is relayed by the server as a chunked response). Documents
// are exported and encoded one at a time into a pipe, so a multi-GB
// catch-up costs the root O(one document) of memory, not O(state).
func (s *Station) handleState(decode func(any) error) (any, error) {
	var req StateRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	if !s.isRoot {
		return nil, fmt.Errorf("%w: state stream", ErrNotRoot)
	}
	s.mu.Lock()
	byURL := make(map[string]CatalogEntry, len(s.catalog))
	for _, e := range s.catalog {
		byURL[e.URL] = e
	}
	s.mu.Unlock()
	var entries []CatalogEntry
	for _, url := range req.URLs {
		if e, ok := byURL[url]; ok {
			entries = append(entries, e)
		} // an unknown URL was never broadcast; nothing to catch up on
	}
	pr, pw := io.Pipe()
	go func() {
		var err error
		for _, e := range entries {
			var doc *stateDoc
			var body []byte
			if doc, err = s.exportStateDoc(e, req.WantMedia); err == nil {
				body, err = wire.AppendBody(nil, doc)
			}
			if err == nil {
				_, err = pw.Write(wire.AppendRecord(nil, body))
			}
			if err != nil {
				break
			}
		}
		// A nil error closes the pipe with io.EOF; anything else
		// surfaces to the caller as the stream's error frame.
		pw.CloseWithError(err)
	}()
	return pr, nil
}

// exportStateDoc assembles one document of a state snapshot: the full
// bundle for a full broadcast the rejoiner will materialize, the
// metadata closure otherwise.
func (s *Station) exportStateDoc(e CatalogEntry, wantMedia bool) (*stateDoc, error) {
	if !e.RefOnly && wantMedia {
		full, err := s.store.ExportBundle(e.URL)
		if err != nil {
			return nil, err
		}
		return &stateDoc{Entry: e, Bundle: *full}, nil
	}
	impl, err := s.store.Implementation(e.URL)
	if err != nil {
		return nil, err
	}
	script, err := s.store.Script(impl.ScriptName)
	if err != nil {
		return nil, err
	}
	return &stateDoc{Entry: e, Bundle: docdb.Bundle{Script: script, Impl: impl}}, nil
}

// catchUpStreamed reconciles the missing documents from one streamed
// state snapshot. It lands on exactly the state the per-entry path
// reaches: a reference scaffold for every missed document, full
// instances where the watermark policy materializes a first fetch
// (watermark 0), and one recorded fetch per full broadcast either way
// — so later resolves cross the watermark on the same schedule they
// would have otherwise.
func (s *Station) catchUpStreamed(v view, rootAddr string, missing []CatalogEntry, out *CatchUpResult) error {
	urls := make([]string, len(missing))
	for i, e := range missing {
		urls[i] = e.URL
	}
	wantMedia := v.Watermark == 0
	// The transport chunks feed a pipe and documents are decoded and
	// imported one at a time as they arrive, so the rejoiner holds one
	// document — not the whole snapshot — and a slow import
	// back-pressures the stream instead of ballooning a buffer.
	pr, pw := io.Pipe()
	done := make(chan int64, 1)
	var streamErr error // the call's verdict; read only after done
	go func() {
		var n int64
		n, streamErr = s.pool(rootAddr).CallStream(methodState, StateRequest{URLs: urls, WantMedia: wantMedia}, pw)
		pw.CloseWithError(streamErr) // nil -> io.EOF for the record reader
		done <- n
	}()
	// Closing the read end on an early exit unblocks the stream
	// goroutine (its writes fail), so <-done cannot deadlock.
	defer pr.Close()
	records := bufio.NewReader(pr)
	out.Streamed = true
	for {
		// ReadRecord reports any failure to start a record as io.EOF,
		// so whether the stream ended or was cut short at a record
		// boundary is the call's verdict, checked below.
		body, err := wire.ReadRecord(records, transport.MaxFrame)
		if errors.Is(err, io.EOF) {
			break
		}
		var doc stateDoc
		if err == nil {
			err = wire.DecodeBody(body, &doc)
		}
		if err != nil {
			return fmt.Errorf("fabric: streaming catch-up state: %w", err)
		}
		e := doc.Entry
		materialize := !e.RefOnly && wantMedia
		var ierr error
		s.importMu.Lock()
		if materialize {
			_, ierr = s.store.ImportBundle(&doc.Bundle, v.pos, false)
		} else {
			_, ierr = s.store.ImportReference(doc.Bundle.Script, doc.Bundle.Impl, v.pos, 1)
		}
		s.importMu.Unlock()
		if ierr != nil {
			return ierr
		}
		out.References++
		if e.RefOnly {
			continue
		}
		s.mu.Lock()
		s.fetches[e.URL]++
		fetches := s.fetches[e.URL]
		s.mu.Unlock()
		out.Resolved = append(out.Resolved, FetchResult{
			URL:        e.URL,
			ServedBy:   1,
			Replicated: materialize,
			Fetches:    fetches,
			Bytes:      doc.Bundle.TotalBytes(),
		})
	}
	out.StreamedBytes = <-done
	if streamErr != nil {
		return fmt.Errorf("fabric: streaming catch-up state: %w", streamErr)
	}
	return nil
}
