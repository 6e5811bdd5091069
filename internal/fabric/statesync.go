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

// Checkpoint streaming for rejoin catch-up. A rejoining station asks
// the root for a state snapshot of every document it is owed: one
// consistent image (metadata closures, plus media bytes when the
// watermark policy will materialize them anyway), streamed over the
// transport's chunked response path in a single call. Catching up
// costs one Catalog and one State round trip however many broadcasts
// were missed — O(state), never O(history) — and each document ships
// in the form the root's catalog holds when the stream is served, not
// the one the rejoiner saw when it sorted the catalog.

// StateRequest asks the root for a state snapshot of the given catalog
// URLs. WantMedia requests full bundles for full-broadcast entries
// (the rejoiner sets it when its watermark materializes the catch-up
// fetch); otherwise every entry ships as its metadata closure only.
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
// requested URLs by the broadcast's own closure builder and streamed
// back in transport chunks (the returned reader is relayed by the
// server as a chunked response). Documents are exported and encoded
// one at a time into a pipe, so a multi-GB catch-up costs the root
// O(one document) of memory, not O(state).
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
			var b *docdb.Bundle
			var body []byte
			if b, err = s.bundleFor(e.URL, e.RefOnly || !req.WantMedia); err == nil {
				body, err = wire.AppendBody(nil, &stateDoc{Entry: e, Bundle: *b})
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

// pullState catches the station up on the owed documents from one
// streamed state snapshot: a reference scaffold for every document it
// lacks, and for every full broadcast one recorded fetch under the
// watermark policy (noteFetch) — a full instance when that fetch
// crosses the watermark — so later resolves cross it on the same
// schedule a parent-route pull would have set.
func (s *Station) pullState(rootAddr string, pos int, urls []string, out *CatchUpResult) error {
	// The root ships media only when some owed document's next fetch
	// materializes; a fetch that crosses the watermark without them
	// (a concurrent resolve moved the count) keeps the reference.
	wantMedia := false
	s.mu.Lock()
	for _, url := range urls {
		wantMedia = wantMedia || s.crossesWatermarkLocked(s.fetches[url]+1)
	}
	s.mu.Unlock()
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
		if err := s.installStateDoc(&doc, pos, wantMedia, out); err != nil {
			return err
		}
	}
	out.StreamedBytes = <-done
	if streamErr != nil {
		return fmt.Errorf("fabric: streaming catch-up state: %w", streamErr)
	}
	return nil
}

// installStateDoc lands one streamed document. The entry is the root's
// current catalog form: a document the tree migrated since the
// rejoiner sorted its catalog arrives as a reference and is installed
// as one. withContent reports whether the root sent full-broadcast
// documents with their content (StateRequest.WantMedia).
func (s *Station) installStateDoc(doc *stateDoc, pos int, withContent bool, out *CatchUpResult) error {
	e := doc.Entry
	var fetches int
	var materialize bool
	if !e.RefOnly {
		fetches, materialize = s.noteFetch(e.URL)
		materialize = materialize && withContent
	}
	s.importMu.Lock()
	_, lookupErr := s.store.ObjectByURL(e.URL)
	fresh := lookupErr != nil
	var err error
	switch {
	case materialize:
		_, err = s.store.ImportBundle(&doc.Bundle, pos, false)
	case fresh:
		_, err = s.store.ImportReference(doc.Bundle.Script, doc.Bundle.Impl, pos, 1)
	}
	s.importMu.Unlock()
	if err != nil {
		return err
	}
	if fresh {
		out.References++
	}
	if !e.RefOnly {
		out.Resolved = append(out.Resolved, FetchResult{
			URL:        e.URL,
			ServedBy:   1,
			Replicated: materialize,
			Fetches:    fetches,
			Bytes:      doc.Bundle.TotalBytes(),
		})
	}
	return nil
}
