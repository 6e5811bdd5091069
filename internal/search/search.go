// Package search is the full-text layer of the Web document database:
// a positional inverted index over document *content* — HTML bodies
// (tokenized through htmlmini's text extraction), add-on program
// sources and script catalog metadata — so a station can answer
// substantive queries ("find the lecture that mentions pipelined
// broadcast") instead of only matching catalog keywords.
//
// The index is maintained incrementally: docdb calls the ContentIndex
// hooks on every content write (PutHTML, PutProgram, ImportBundle,
// ImportReference, the copy paths behind Instantiate and check-in
// edits) and on every content drop (migration to reference, deletes).
// It is never written to disk: docdb's Recover rebuilds it from the
// relational tables, so it is a pure cache and the relational engine
// stays the only source of truth.
//
// On top of the local index the distribution fabric runs scatter-gather
// queries down the m-ary tree (fabric.Station.Search), merging bounded
// top-k result sets hop by hop — the querying model of the Distributed
// XML-Query Network applied to the paper's document stations.
package search

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/htmlmini"
)

// Document kinds carried in hit results.
const (
	KindHTML    = "html"
	KindProgram = "program"
	KindScript  = "script"
)

// DefaultTopK bounds a query's result set when the caller does not.
const DefaultTopK = 20

// Key builds the index-wide document key. HTML and program files key by
// starting URL and path; scripts key by name (URL empty).
func Key(kind, url, path string) string {
	return kind + ":" + url + "#" + path
}

// Query is one full-text request.
type Query struct {
	Terms []string
	// Phrase requires the terms to appear consecutively, using the
	// positional postings.
	Phrase bool
	// TopK bounds the result set (DefaultTopK when <= 0).
	TopK int
}

// Hit is one ranked result. Scores depend only on the document content
// and the query — never on which station answered — so hits for the
// same document rank identically everywhere and federation-wide merges
// are deterministic.
type Hit struct {
	Key     string
	Kind    string
	URL     string // starting URL ("" for script hits)
	Path    string // file path (script name for script hits)
	Score   int64
	Station int    // position of the answering station (0 = local)
	Snippet string // text surrounding the first match
}

// Searcher is the query side of an index, the capability the fabric
// and the Web UI need from whatever content index a station attached.
type Searcher interface {
	Search(q Query) []Hit
}

// doc is one indexed document: its identity plus the token stream the
// postings point into (kept for snippets and for the scan baseline).
type doc struct {
	Kind   string
	URL    string
	Path   string
	Tokens []string
}

// Index is the positional inverted index. Safe for concurrent use.
type Index struct {
	mu   sync.RWMutex
	docs map[string]*doc
	// post maps term -> doc key -> ascending token positions.
	post  map[string]map[string][]int32
	byURL map[string]map[string]bool // starting URL -> content doc keys
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		docs:  make(map[string]*doc),
		post:  make(map[string]map[string][]int32),
		byURL: make(map[string]map[string]bool),
	}
}

// Tokenize splits text into normalized index tokens: lower-cased runs
// of letters and digits.
func Tokenize(text string) []string {
	var toks []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			toks = append(toks, strings.ToLower(text[start:end]))
			start = -1
		}
	}
	for i, r := range text {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(text))
	return toks
}

// IndexHTML indexes (or re-indexes) one HTML file's visible text.
func (ix *Index) IndexHTML(url, path string, content []byte) {
	ix.add(KindHTML, url, path, Tokenize(htmlmini.Text(content)))
}

// IndexProgram indexes one add-on program source.
func (ix *Index) IndexProgram(url, path, language string, content []byte) {
	toks := Tokenize(string(content))
	if language != "" {
		toks = append(toks, strings.ToLower(language))
	}
	ix.add(KindProgram, url, path, toks)
}

// IndexScript indexes a script's catalog metadata, so stations holding
// only a document reference still answer for its title, keywords and
// author without materializing any content.
func (ix *Index) IndexScript(name, description, author string, keywords []string) {
	text := name + " " + description + " " + author + " " + strings.Join(keywords, " ")
	ix.add(KindScript, "", name, Tokenize(text))
}

// add installs one tokenized document, replacing any previous version.
func (ix *Index) add(kind, url, path string, tokens []string) {
	key := Key(kind, url, path)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(key)
	d := &doc{Kind: kind, URL: url, Path: path, Tokens: tokens}
	ix.docs[key] = d
	for pos, tok := range tokens {
		m := ix.post[tok]
		if m == nil {
			m = make(map[string][]int32)
			ix.post[tok] = m
		}
		m[key] = append(m[key], int32(pos))
	}
	if kind != KindScript {
		set := ix.byURL[url]
		if set == nil {
			set = make(map[string]bool)
			ix.byURL[url] = set
		}
		set[key] = true
	}
}

// RemoveContent drops every content document (HTML and program files)
// of one starting URL — a migration to reference or an implementation
// delete. The script metadata entry survives, as the reference does.
func (ix *Index) RemoveContent(url string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for key := range ix.byURL[url] {
		ix.removeLocked(key)
	}
}

// RemoveScript drops a script's metadata document.
func (ix *Index) RemoveScript(name string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(Key(KindScript, "", name))
}

func (ix *Index) removeLocked(key string) {
	d, ok := ix.docs[key]
	if !ok {
		return
	}
	delete(ix.docs, key)
	for _, tok := range d.Tokens {
		if m := ix.post[tok]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(ix.post, tok)
			}
		}
	}
	if d.Kind != KindScript {
		if set := ix.byURL[d.URL]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(ix.byURL, d.URL)
			}
		}
	}
}

// Docs reports the number of indexed documents.
func (ix *Index) Docs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// IndexStats sizes the inverted index: how many documents it covers,
// how many distinct terms the postings hold, and the total number of
// (term, document) posting entries. Scraped by the station Stats RPC.
type IndexStats struct {
	Docs     int
	Terms    int
	Postings int
}

// Stats returns a point-in-time size snapshot of the index.
func (ix *Index) Stats() IndexStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := IndexStats{Docs: len(ix.docs), Terms: len(ix.post)}
	for _, m := range ix.post {
		st.Postings += len(m)
	}
	return st
}

// Search answers a query from the postings: per-term lookups, scored
// by matched terms first and term frequency second, ranked
// deterministically (score descending, key ascending) and trimmed to
// TopK.
func (ix *Index) Search(q Query) []Hit {
	terms := NormalizeTerms(q.Terms)
	if len(terms) == 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	type acc struct {
		matched int
		tf      int
	}
	scores := make(map[string]*acc)
	for _, term := range terms {
		for key, positions := range ix.post[term] {
			a := scores[key]
			if a == nil {
				a = &acc{}
				scores[key] = a
			}
			a.matched++
			a.tf += len(positions)
		}
	}
	var hits []Hit
	for key, a := range scores {
		if q.Phrase && len(terms) > 1 {
			if a.matched < len(terms) || !ix.phraseInLocked(key, terms) {
				continue
			}
		}
		d := ix.docs[key]
		hits = append(hits, Hit{
			Key:     key,
			Kind:    d.Kind,
			URL:     d.URL,
			Path:    d.Path,
			Score:   score(a.matched, a.tf),
			Snippet: snippet(d.Tokens, terms),
		})
	}
	return Rank(hits, q.TopK)
}

// phraseInLocked reports whether the terms appear consecutively in the
// document, walking the first term's postings.
func (ix *Index) phraseInLocked(key string, terms []string) bool {
	first := ix.post[terms[0]][key]
	for _, start := range first {
		ok := true
		for i := 1; i < len(terms); i++ {
			if !containsPos(ix.post[terms[i]][key], start+int32(i)) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// containsPos binary-searches an ascending position list.
func containsPos(positions []int32, want int32) bool {
	i := sort.Search(len(positions), func(i int) bool { return positions[i] >= want })
	return i < len(positions) && positions[i] == want
}

// score folds matched-term count and term frequency into one ranking
// integer: a document matching more distinct query terms always beats
// one matching fewer, however often.
func score(matched, tf int) int64 {
	return int64(matched)<<32 + int64(tf)
}

// snippet extracts the tokens surrounding the first query-term match.
const snippetRadius = 5

func snippet(tokens []string, terms []string) string {
	at := -1
	for i, tok := range tokens {
		for _, term := range terms {
			if tok == term {
				at = i
				break
			}
		}
		if at >= 0 {
			break
		}
	}
	if at < 0 {
		return ""
	}
	lo := at - snippetRadius
	if lo < 0 {
		lo = 0
	}
	hi := at + snippetRadius + 1
	if hi > len(tokens) {
		hi = len(tokens)
	}
	return strings.Join(tokens[lo:hi], " ")
}

// NormalizeTerms flattens raw query terms into index tokens — the
// normalization Search applies. Callers that pay per query (the
// fabric's scatter-gather) use it to skip term-less queries outright.
func NormalizeTerms(terms []string) []string {
	var out []string
	for _, t := range terms {
		for _, tok := range Tokenize(t) {
			out = append(out, tok)
		}
	}
	return out
}

// Rank sorts hits deterministically (score descending, key ascending)
// and trims to k (DefaultTopK when k <= 0). It is the shared ordering
// of local queries, per-hop merges and the scan baseline, so every
// layer of the system ranks identically.
func Rank(hits []Hit, k int) []Hit {
	if k <= 0 {
		k = DefaultTopK
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Key < hits[j].Key
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// Merge folds hit lists from several stations into one ranked top-k
// set, deduplicating replicas of the same document: scores are
// content-derived, so any replica carries the same score and the
// lowest answering station wins the credit. This is the per-hop merge
// of the fabric's scatter-gather search.
func Merge(k int, lists ...[]Hit) []Hit {
	best := make(map[string]Hit)
	for _, list := range lists {
		for _, h := range list {
			prev, ok := best[h.Key]
			if !ok || h.Score > prev.Score ||
				(h.Score == prev.Score && h.Station < prev.Station) {
				best[h.Key] = h
			}
		}
	}
	merged := make([]Hit, 0, len(best))
	for _, h := range best {
		merged = append(merged, h)
	}
	return Rank(merged, k)
}

// ScanSearch is the unindexed baseline: it walks every document and
// re-scans its token stream per query term, with exactly the scoring,
// phrase rule and ranking of Search. The benchmarks pin the inverted
// index against it, and the differential tests require bit-identical
// results.
func (ix *Index) ScanSearch(q Query) []Hit {
	terms := NormalizeTerms(q.Terms)
	if len(terms) == 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var hits []Hit
	for key, d := range ix.docs {
		matched, tf := 0, 0
		for _, term := range terms {
			n := 0
			for _, tok := range d.Tokens {
				if tok == term {
					n++
				}
			}
			if n > 0 {
				matched++
				tf += n
			}
		}
		if matched == 0 {
			continue
		}
		if q.Phrase && len(terms) > 1 {
			if matched < len(terms) || !phraseInTokens(d.Tokens, terms) {
				continue
			}
		}
		hits = append(hits, Hit{
			Key:     key,
			Kind:    d.Kind,
			URL:     d.URL,
			Path:    d.Path,
			Score:   score(matched, tf),
			Snippet: snippet(d.Tokens, terms),
		})
	}
	return Rank(hits, q.TopK)
}

// phraseInTokens is the scan-side phrase check.
func phraseInTokens(tokens, terms []string) bool {
	for i := 0; i+len(terms) <= len(tokens); i++ {
		ok := true
		for j, term := range terms {
			if tokens[i+j] != term {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
