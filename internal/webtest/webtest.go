// Package webtest implements the Web document testing subsystem the
// paper attaches to every implementation: white-box testing (exhaustive
// traversal of the page graph) and black-box testing (a random walk
// driven by recorded windowing messages), producing the TestRecord and
// BugReport rows of section 3 — bad URLs, missing objects, redundant
// objects and inconsistencies — plus the course-complexity estimate the
// introduction raises as a research question.
package webtest

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/docdb"
	"repro/internal/htmlmini"
)

// Findings is the raw outcome of one analysis pass over an
// implementation.
type Findings struct {
	StartingURL string
	// VisitedPages are the page paths reachable from index.html.
	VisitedPages []string
	// BadURLs are internal link targets that resolve to no stored page.
	BadURLs []string
	// MissingObjects are asset references with no stored media resource
	// or page behind them.
	MissingObjects []string
	// RedundantObjects are stored pages and media never referenced by
	// any reachable page.
	RedundantObjects []string
	// Inconsistencies are structural defects: pages without titles,
	// duplicate titles, or an entry page that is absent.
	Inconsistencies []string
	// Messages is the traversal transcript (the "Web traversal
	// messages" of the TestRecord table).
	Messages []string
}

// Clean reports whether the findings contain no defects.
func (f *Findings) Clean() bool {
	return len(f.BadURLs) == 0 && len(f.MissingObjects) == 0 &&
		len(f.RedundantObjects) == 0 && len(f.Inconsistencies) == 0
}

// Complexity is the course-complexity estimate for an implementation:
// the paper asks "how do we estimate the complexity of a course"; we
// answer with graph and media metrics, including the cyclomatic number
// E - N + 2P of the page graph.
type Complexity struct {
	Pages      int
	Links      int
	AssetRefs  int
	MediaBytes int64
	MaxDepth   int // BFS depth of the deepest reachable page
	Components int // weakly-connected components among stored pages
	Cyclomatic int // E - N + 2P over the reachable page graph
}

// Suite runs tests over one document store.
type Suite struct {
	Store *docdb.Store
	// Entry is the path of the entry page; defaults to index.html.
	Entry string
}

func (s *Suite) entry() string {
	if s.Entry != "" {
		return s.Entry
	}
	return "index.html"
}

// pageGraph loads the implementation's pages, parsed.
func (s *Suite) pageGraph(url string) (map[string]htmlmini.Doc, error) {
	files, err := s.Store.HTMLFiles(url)
	if err != nil {
		return nil, err
	}
	pages := make(map[string]htmlmini.Doc, len(files))
	for _, f := range files {
		pages[f.Path] = htmlmini.Parse(f.Content)
	}
	return pages, nil
}

// WhiteBox exhaustively traverses the implementation's page graph from
// the entry page, validating every link and asset reference against the
// stored document objects.
func (s *Suite) WhiteBox(url string) (*Findings, error) {
	pages, err := s.pageGraph(url)
	if err != nil {
		return nil, err
	}
	mediaRefs, err := s.Store.ImplMedia(url)
	if err != nil {
		return nil, err
	}
	mediaByName := make(map[string]bool, len(mediaRefs))
	for _, m := range mediaRefs {
		mediaByName[m.Name] = true
	}
	progs, err := s.Store.ProgramFiles(url)
	if err != nil {
		return nil, err
	}
	progByPath := make(map[string]bool, len(progs))
	for _, p := range progs {
		progByPath[p.Path] = true
	}

	f := &Findings{StartingURL: url}
	entry := s.entry()
	if _, ok := pages[entry]; !ok {
		f.Inconsistencies = append(f.Inconsistencies, fmt.Sprintf("entry page %s is absent", entry))
		return f, nil
	}

	visited := map[string]bool{}
	usedAssets := map[string]bool{}
	badURLs := map[string]bool{}
	missing := map[string]bool{}
	queue := []string{entry}
	visited[entry] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		f.Messages = append(f.Messages, "open "+cur)
		doc := pages[cur]
		for _, link := range doc.Links {
			if htmlmini.IsExternal(link) {
				f.Messages = append(f.Messages, "skip external "+link)
				continue
			}
			target := htmlmini.Normalize(link)
			if target == "" {
				continue
			}
			if _, ok := pages[target]; ok {
				if !visited[target] {
					visited[target] = true
					queue = append(queue, target)
					f.Messages = append(f.Messages, "follow "+target)
				}
				continue
			}
			badURLs[target] = true
		}
		for _, asset := range doc.Assets {
			name := htmlmini.Normalize(asset)
			usedAssets[name] = true
			if !mediaByName[name] && !progByPath[name] {
				missing[name] = true
			}
		}
	}

	// Redundant objects: stored pages never reached and media never
	// referenced by a reachable page.
	for path := range pages {
		if !visited[path] {
			f.RedundantObjects = append(f.RedundantObjects, path)
		}
	}
	for _, m := range mediaRefs {
		if !usedAssets[m.Name] {
			f.RedundantObjects = append(f.RedundantObjects, m.Name)
		}
	}

	// Inconsistencies: untitled and duplicate-titled reachable pages.
	titles := map[string][]string{}
	for path := range visited {
		doc := pages[path]
		if doc.Title == "" {
			f.Inconsistencies = append(f.Inconsistencies, "page "+path+" has no title")
			continue
		}
		titles[doc.Title] = append(titles[doc.Title], path)
	}
	for title, paths := range titles {
		if len(paths) > 1 {
			sort.Strings(paths)
			f.Inconsistencies = append(f.Inconsistencies,
				fmt.Sprintf("title %q duplicated across %v", title, paths))
		}
	}

	f.VisitedPages = sortedKeys(visited)
	f.BadURLs = sortedKeys(badURLs)
	f.MissingObjects = sortedKeys(missing)
	sort.Strings(f.RedundantObjects)
	sort.Strings(f.Inconsistencies)
	return f, nil
}

// Local validates a single page — the "local" testing scope of the
// TestRecord table — checking only that page's links and asset
// references without traversing the rest of the course.
//
//lint:ignore unreached paper section 3: the local testing scope of the TestRecord table
func (s *Suite) Local(url, path string) (*Findings, error) {
	pages, err := s.pageGraph(url)
	if err != nil {
		return nil, err
	}
	f := &Findings{StartingURL: url}
	doc, ok := pages[path]
	if !ok {
		f.Inconsistencies = append(f.Inconsistencies, fmt.Sprintf("page %s is absent", path))
		return f, nil
	}
	mediaRefs, err := s.Store.ImplMedia(url)
	if err != nil {
		return nil, err
	}
	mediaByName := make(map[string]bool, len(mediaRefs))
	for _, m := range mediaRefs {
		mediaByName[m.Name] = true
	}
	f.Messages = append(f.Messages, "open "+path)
	f.VisitedPages = []string{path}
	badURLs := map[string]bool{}
	missing := map[string]bool{}
	for _, link := range doc.Links {
		if htmlmini.IsExternal(link) {
			continue
		}
		target := htmlmini.Normalize(link)
		if target == "" {
			continue
		}
		if _, ok := pages[target]; !ok {
			badURLs[target] = true
		} else {
			f.Messages = append(f.Messages, "check "+target)
		}
	}
	for _, asset := range doc.Assets {
		name := htmlmini.Normalize(asset)
		if !mediaByName[name] {
			missing[name] = true
		}
	}
	if doc.Title == "" {
		f.Inconsistencies = append(f.Inconsistencies, "page "+path+" has no title")
	}
	f.BadURLs = sortedKeys(badURLs)
	f.MissingObjects = sortedKeys(missing)
	return f, nil
}

// BlackBox performs a random walk of the given number of steps from the
// entry page, the way a student clicking through the course would,
// recording the windowing messages and any bad URL encountered. The
// walk restarts from the entry page at dead ends.
//
//lint:ignore unreached paper section 3: black-box testing by a random walk of windowing messages
func (s *Suite) BlackBox(url string, steps int, seed int64) (*Findings, error) {
	pages, err := s.pageGraph(url)
	if err != nil {
		return nil, err
	}
	f := &Findings{StartingURL: url}
	entry := s.entry()
	if _, ok := pages[entry]; !ok {
		f.Inconsistencies = append(f.Inconsistencies, fmt.Sprintf("entry page %s is absent", entry))
		return f, nil
	}
	rng := rand.New(rand.NewSource(seed))
	visited := map[string]bool{entry: true}
	badURLs := map[string]bool{}
	cur := entry
	f.Messages = append(f.Messages, "open "+entry)
	for i := 0; i < steps; i++ {
		var internal []string
		for _, link := range pages[cur].Links {
			if !htmlmini.IsExternal(link) {
				if t := htmlmini.Normalize(link); t != "" {
					internal = append(internal, t)
				}
			}
		}
		if len(internal) == 0 {
			cur = entry
			f.Messages = append(f.Messages, "restart "+entry)
			continue
		}
		next := internal[rng.Intn(len(internal))]
		if _, ok := pages[next]; !ok {
			badURLs[next] = true
			f.Messages = append(f.Messages, "dead link "+next)
			cur = entry
			continue
		}
		cur = next
		visited[cur] = true
		f.Messages = append(f.Messages, "click "+cur)
	}
	f.VisitedPages = sortedKeys(visited)
	f.BadURLs = sortedKeys(badURLs)
	return f, nil
}

// Coverage is the fraction of stored pages a findings set visited.
//
//lint:ignore unreached paper section 3: the coverage a white- or black-box test reaches
func (s *Suite) Coverage(url string, f *Findings) (float64, error) {
	files, err := s.Store.HTMLFiles(url)
	if err != nil {
		return 0, err
	}
	if len(files) == 0 {
		return 0, nil
	}
	return float64(len(f.VisitedPages)) / float64(len(files)), nil
}

// Complexity computes the course-complexity metrics of an
// implementation.
func (s *Suite) Complexity(url string) (Complexity, error) {
	pages, err := s.pageGraph(url)
	if err != nil {
		return Complexity{}, err
	}
	mediaRefs, err := s.Store.ImplMedia(url)
	if err != nil {
		return Complexity{}, err
	}
	var c Complexity
	c.Pages = len(pages)
	for _, m := range mediaRefs {
		c.MediaBytes += m.Ref.Size
	}
	// Build the internal link graph among stored pages.
	adj := make(map[string][]string, len(pages))
	for path, doc := range pages {
		c.AssetRefs += len(doc.Assets)
		for _, link := range doc.Links {
			if htmlmini.IsExternal(link) {
				continue
			}
			t := htmlmini.Normalize(link)
			if _, ok := pages[t]; ok {
				adj[path] = append(adj[path], t)
				c.Links++
			}
		}
	}
	// BFS depth from the entry.
	entry := s.entry()
	if _, ok := pages[entry]; ok {
		depth := map[string]int{entry: 0}
		queue := []string{entry}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if depth[cur] > c.MaxDepth {
				c.MaxDepth = depth[cur]
			}
			for _, next := range adj[cur] {
				if _, seen := depth[next]; !seen {
					depth[next] = depth[cur] + 1
					queue = append(queue, next)
				}
			}
		}
	}
	// Weakly-connected components over all stored pages.
	undirected := make(map[string][]string, len(pages))
	for from, tos := range adj {
		for _, to := range tos {
			undirected[from] = append(undirected[from], to)
			undirected[to] = append(undirected[to], from)
		}
	}
	seen := map[string]bool{}
	for path := range pages {
		if seen[path] {
			continue
		}
		c.Components++
		stack := []string{path}
		seen[path] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range undirected[cur] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
	}
	c.Cyclomatic = c.Links - c.Pages + 2*c.Components
	return c, nil
}

// Report runs a white-box pass and persists its TestRecord (scope
// "global") plus, when defects were found, a BugReport, returning both
// names. The bug name is empty for a clean course.
func (s *Suite) Report(url, qaEngineer string, seq int) (testName, bugName string, err error) {
	impl, err := s.Store.Implementation(url)
	if err != nil {
		return "", "", err
	}
	f, err := s.WhiteBox(url)
	if err != nil {
		return "", "", err
	}
	testName = fmt.Sprintf("test-%s-%04d", impl.ScriptName, seq)
	err = s.Store.RecordTest(docdb.TestRecord{
		Name:        testName,
		ScriptName:  impl.ScriptName,
		StartingURL: url,
		Scope:       "global",
		Messages:    f.Messages,
	})
	if err != nil {
		return "", "", err
	}
	if f.Clean() {
		return testName, "", nil
	}
	bugName = fmt.Sprintf("bug-%s-%04d", impl.ScriptName, seq)
	inconsistency := ""
	if len(f.Inconsistencies) > 0 {
		inconsistency = f.Inconsistencies[0]
		if len(f.Inconsistencies) > 1 {
			inconsistency = fmt.Sprintf("%s (+%d more)", inconsistency, len(f.Inconsistencies)-1)
		}
	}
	err = s.Store.FileBugReport(docdb.BugReport{
		Name:             bugName,
		TestName:         testName,
		QAEngineer:       qaEngineer,
		Procedure:        "white-box traversal from " + s.entry(),
		Description:      fmt.Sprintf("%d bad URLs, %d missing objects, %d redundant objects", len(f.BadURLs), len(f.MissingObjects), len(f.RedundantObjects)),
		BadURLs:          f.BadURLs,
		MissingObjects:   f.MissingObjects,
		Inconsistency:    inconsistency,
		RedundantObjects: f.RedundantObjects,
	})
	if err != nil {
		return "", "", err
	}
	return testName, bugName, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
