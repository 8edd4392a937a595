package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"time"

	"dexa/internal/cluster"
	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/simulation"
	"dexa/internal/store"
)

// catalog is the benchmark's own view of the annotated catalog, built from
// the deterministic simulation universe. The request generator draws
// module IDs, concepts and signature pairs from it, and the checks compare
// served answers with its annotations.
type catalog struct {
	ids  []string // every registered module, sorted
	sets map[string]dataexample.Set
	hash map[string]string
	// variants are alternative annotations the churn writer swaps in: the
	// same module annotated from other pool realizations (a nonzero
	// generator SelectionOffset), so every write really changes content.
	variants    map[string][2]dataexample.Set
	variantHash map[string][2]string
	sig         map[string][2]string // primary (input, output) concept
	concepts    []string             // distinct primary-signature concepts, sorted
	words       []string             // distinct description words, sorted
}

// buildCatalog annotates every module of a fresh universe twice over
// (default and variant annotations). It runs once per process, before any
// timed set-up: it prepares inputs, it is not part of what is measured.
func buildCatalog() (*catalog, error) {
	u := simulation.NewUniverse()
	c := &catalog{
		ids:         u.Registry.IDs(),
		sets:        map[string]dataexample.Set{},
		hash:        map[string]string{},
		variants:    map[string][2]dataexample.Set{},
		variantHash: map[string][2]string{},
		sig:         map[string][2]string{},
	}
	var gens [2]*core.Generator
	for i := range gens {
		gens[i] = core.NewGenerator(u.Ont, u.Pool)
		gens[i].SelectionOffset = i + 1
	}
	concepts, words := map[string]bool{}, map[string]bool{}
	for _, id := range c.ids {
		e, _ := u.Registry.Get(id)
		m := e.Module
		set, _, err := u.Gen.Generate(m)
		if err != nil {
			return nil, fmt.Errorf("annotating %s: %w", id, err)
		}
		h, err := store.HashSet(set)
		if err != nil {
			return nil, err
		}
		c.sets[id], c.hash[id] = set, h
		var vs [2]dataexample.Set
		var vh [2]string
		for i, g := range gens {
			if vs[i], _, err = g.Generate(m); err != nil {
				return nil, fmt.Errorf("annotating variant of %s: %w", id, err)
			}
			if vh[i], err = store.HashSet(vs[i]); err != nil {
				return nil, err
			}
			if vh[i] == h {
				return nil, fmt.Errorf("variant %d of %s equals its default annotation", i, id)
			}
		}
		c.variants[id], c.variantHash[id] = vs, vh
		if len(m.Inputs) > 0 && len(m.Outputs) > 0 {
			in, out := m.Inputs[0].Semantic, m.Outputs[0].Semantic
			c.sig[id] = [2]string{in, out}
			concepts[in], concepts[out] = true, true
		}
		for _, w := range descriptionWords(m.Description) {
			words[w] = true
		}
	}
	c.concepts = sortedKeys(concepts)
	c.words = sortedKeys(words)
	return c, nil
}

// descriptionWords splits a description into lower-case words of at least
// four letters — the kind of term a curator types into a search box.
func descriptionWords(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		letter := i < len(s) && (s[i] >= 'a' && s[i] <= 'z' || s[i] >= 'A' && s[i] <= 'Z')
		if letter && start < 0 {
			start = i
		}
		if !letter && start >= 0 {
			if i-start >= 4 {
				w := []byte(s[start:i])
				for j, b := range w {
					if b >= 'A' && b <= 'Z' {
						w[j] = b + 'a' - 'A'
					}
				}
				out = append(out, string(w))
			}
			start = -1
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// request is one reader operation of a workload's fixed sequence.
type request struct {
	Kind   string // examples, module, search.<family>, substitutes, catalog, matches, compose, generate
	Method string
	Path   string // path and query under the /api prefix
	Node   int    // index of the node the request is sent to
	Target string // module ID for module-scoped requests
	// Cond revalidates with the ETag the warm-up saw, so the answer is a
	// 304 when nothing changed.
	Cond bool
}

// key identifies a distinct request: same key, same expected answer on a
// static catalog.
func (r request) key() string {
	return fmt.Sprintf("%d %s %s %t", r.Node, r.Method, r.Path, r.Cond)
}

// write is one scheduled re-annotation of the churn writer.
type write struct {
	Due     time.Duration // offset from the start of the timed phase
	Module  string
	Variant int // -1 writes the default annotation back, 0 or 1 a variant
}

// plan is everything a run's seed fixes: the reader request sequence and,
// for churn, the writer schedule and which modules it rewrites.
type plan struct {
	requests []request
	writes   []write
	written  []string // churn: modules the writer rewrites
	refresh  []string // churn: the other half, refreshed over HTTP
}

// weighted is one entry of a workload mix.
type weighted struct {
	kind   string
	weight int
}

// drawKinds returns n kinds in blocks that each hold every kind exactly
// its weight times, shuffled by rng: every prefix of the sequence keeps
// the mix, so run length does not change what is measured.
func drawKinds(rng *rand.Rand, mix []weighted, n int) []string {
	var block []string
	for _, w := range mix {
		for i := 0; i < w.weight; i++ {
			block = append(block, w.kind)
		}
	}
	out := make([]string, 0, n+len(block))
	for len(out) < n {
		b := append([]string(nil), block...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		out = append(out, b...)
	}
	return out[:n]
}

// shardNames are the scatter workload's ring members.
var shardNames = []string{"s1", "s2", "s3"}

// makePlan derives the workload's inputs from the seed alone (and the
// deterministic catalog): same seed, same requests, same write schedule.
func makePlan(w *workload, c *catalog, seed int64, requests int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	// Targets come from decks, one per request kind and pool: every pool
	// member is drawn once per pass, in a seeded order. Seeds then change
	// the order of the requests, not how often each target is asked for,
	// so runs with different seeds do the same work.
	decks := map[string]*deck{}
	pick := func(key string, pool []string) string {
		d := decks[key]
		if d == nil {
			d = &deck{pool: pool, rng: rng}
			decks[key] = d
		}
		return d.draw()
	}
	search := func(q string) string { return "/search?q=" + url.QueryEscape(q) }
	modPath := func(id, suffix string) string { return "/modules/" + url.PathEscape(id) + suffix }

	switch w.name {
	case "lookup":
		for _, k := range drawKinds(rng, w.mix, requests) {
			r := request{Kind: k, Method: "GET"}
			switch k {
			case "examples":
				r.Target = pick(k, c.ids)
				r.Path = modPath(r.Target, "/examples")
			case "module":
				r.Target = pick(k, c.ids)
				r.Path = modPath(r.Target, "")
			case "substitutes":
				r.Target = pick(k, c.ids)
				r.Path = modPath(r.Target, "/substitutes")
			case "search.keyword":
				r.Path = search(pick(k, c.words))
			case "search.concept":
				r.Path = search("concept:" + pick(k, c.concepts))
			case "search.behaves":
				r.Path = search("behaves:" + pick(k, c.ids))
			case "catalog":
				r.Path = "/catalog"
			case "matches":
				r.Path, r.Cond = "/matches", true
			}
			p.requests = append(p.requests, r)
		}
	case "plan":
		var withSig []string
		for _, id := range c.ids {
			if _, ok := c.sig[id]; ok {
				withSig = append(withSig, id)
			}
		}
		for _, k := range drawKinds(rng, w.mix, requests) {
			anchor := pick(k, withSig)
			sig := c.sig[anchor]
			q := url.Values{}
			q.Set("in", sig[0])
			q.Set("out", sig[1])
			q.Set("depth", "2")
			q.Set("limit", "3")
			switch k {
			case "compose.like":
				q.Set("like", anchor)
			case "compose.use":
				q.Set("use", sig[0])
			}
			p.requests = append(p.requests, request{Kind: k, Method: "GET", Path: "/compose?" + q.Encode(), Target: anchor})
		}
	case "churn":
		ids := append([]string(nil), c.ids...)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		p.written = append([]string(nil), ids[:len(ids)/2]...)
		p.refresh = append([]string(nil), ids[len(ids)/2:]...)
		sort.Strings(p.written)
		sort.Strings(p.refresh)
		for _, k := range drawKinds(rng, w.mix, requests) {
			r := request{Kind: k, Method: "GET"}
			switch k {
			case "matches":
				r.Path = "/matches"
			case "substitutes":
				r.Target = pick(k, p.written)
				r.Path = modPath(r.Target, "/substitutes")
			case "search.behaves":
				r.Target = pick(k, p.written)
				r.Path = search("behaves:" + r.Target)
			case "generate":
				r.Target = pick(k, p.refresh)
				r.Method = "POST"
				r.Path = modPath(r.Target, "/generate?refresh=1")
			}
			p.requests = append(p.requests, r)
		}
		// The writer: a fixed-rate schedule over the written half. Every
		// module alternates between a seeded variant and its default
		// annotation, so each write changes the stored content. The
		// schedule is twice the readers' nominal run, so writes keep
		// arriving for as long as readers run even when they slow down;
		// the writer stops when the readers finish.
		n := int(2 * float64(requests) / w.readRate * w.writeRate)
		interval := time.Duration(float64(time.Second) / w.writeRate)
		current := map[string]int{} // -1 = default annotation stored
		for i := 0; i < n; i++ {
			id := pick("write", p.written)
			v := rng.Intn(2)
			cur, ok := current[id]
			if !ok {
				cur = -1
			}
			if cur >= 0 {
				v = -1
			}
			current[id] = v
			p.writes = append(p.writes, write{Due: time.Duration(i) * interval, Module: id, Variant: v})
		}
	case "scatter":
		ring, err := cluster.NewRing(shardNames, 0)
		if err != nil {
			return nil, err
		}
		foreign := make([][]string, len(shardNames))
		for i, name := range shardNames {
			for _, id := range c.ids {
				if ring.Owner(id) != name {
					foreign[i] = append(foreign[i], id)
				}
			}
		}
		for i, k := range drawKinds(rng, w.mix, requests) {
			// Connections spread their requests over the shards in turn.
			r := request{Kind: k, Method: "GET", Node: i % len(shardNames)}
			switch k {
			case "substitutes":
				r.Target = pick(k, c.ids)
				r.Path = modPath(r.Target, "/substitutes")
			case "search.keyword":
				r.Path = search(pick(k, c.words))
			case "search.behaves":
				r.Path = search("behaves:" + pick(k, c.ids))
			case "examples":
				r.Target = pick(fmt.Sprint(k, r.Node), foreign[r.Node])
				r.Path = modPath(r.Target, "/examples")
			case "matches":
				r.Path, r.Cond = "/matches", true
			}
			p.requests = append(p.requests, r)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	return p, nil
}

// deck deals a pool's members in seeded passes: each pass is a fresh
// shuffle, and every member appears exactly once per pass.
type deck struct {
	pool  []string
	order []string
	rng   *rand.Rand
}

func (d *deck) draw() string {
	if len(d.order) == 0 {
		d.order = append([]string(nil), d.pool...)
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
	}
	v := d.order[0]
	d.order = d.order[1:]
	return v
}
