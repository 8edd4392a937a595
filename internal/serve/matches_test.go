package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"dexa/internal/match"
)

func post(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d", url, resp.StatusCode)
	}
}

func getWithETag(t *testing.T, url, etag string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// TestMatchesEndpoint drives the full lifecycle: an unannotated catalog
// yields an all-missing matrix, annotating modules changes the ETag and
// fills cells, an If-None-Match revalidation answers 304, and the cached
// build serves unchanged catalogs.
func TestMatchesEndpoint(t *testing.T) {
	f := newFixture(t, "")

	var first struct {
		State  string            `json:"state"`
		Matrix match.MatchMatrix `json:"matrix"`
	}
	resp := getWithETag(t, f.ts.URL+"/matches", "", &first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag0 := resp.Header.Get("ETag")
	if etag0 == "" {
		t.Fatal("no ETag on /matches")
	}
	if len(first.Matrix.Missing) != 3 || len(first.Matrix.Cells) != 0 {
		t.Fatalf("unannotated matrix = %+v", first.Matrix)
	}

	// Revalidation with the current state answers 304 without a rebuild.
	if resp := getWithETag(t, f.ts.URL+"/matches", etag0, nil); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", resp.StatusCode)
	}

	// Annotating modules changes the catalog state: new ETag, real cells.
	for _, id := range []string{"alpha", "beta", "gamma"} {
		post(t, f.ts.URL+"/modules/"+id+"/generate")
	}
	var second struct {
		State  string            `json:"state"`
		Matrix match.MatchMatrix `json:"matrix"`
	}
	resp = getWithETag(t, f.ts.URL+"/matches", etag0, &second)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after annotation: %d, want 200 (stale ETag must not 304)", resp.StatusCode)
	}
	etag1 := resp.Header.Get("ETag")
	if etag1 == etag0 {
		t.Fatal("ETag unchanged although the catalog changed")
	}
	if len(second.Matrix.Missing) != 0 {
		t.Fatalf("missing = %v", second.Matrix.Missing)
	}
	// alpha and beta are behaviourally equivalent; gamma is disjoint from
	// both — 2 equivalent + 4 disjoint ordered cells.
	if second.Matrix.Stats.Equivalent != 2 || second.Matrix.Stats.Disjoint != 4 {
		t.Errorf("stats = %+v", second.Matrix.Stats)
	}

	// An unchanged catalog serves the identical cached build.
	var third struct {
		State string `json:"state"`
	}
	getWithETag(t, f.ts.URL+"/matches", "", &third)
	if third.State != second.State {
		t.Errorf("state churned on an unchanged catalog: %s vs %s", third.State, second.State)
	}
}

// TestSubstitutesWarmAndETagged: the substitutes endpoint carries the
// catalog-state ETag, answers 304 on revalidation, reuses the warmed
// search on an unchanged catalog, and invalidates when the target's
// stored annotation changes.
func TestSubstitutesWarmAndETagged(t *testing.T) {
	f := newFixture(t, "")
	for _, id := range []string{"alpha", "beta", "gamma"} {
		post(t, f.ts.URL+"/modules/"+id+"/generate")
	}
	url := f.ts.URL + "/modules/alpha/substitutes"

	var subs struct {
		Substitutes []struct {
			ID      string `json:"id"`
			Verdict string `json:"verdict"`
		} `json:"substitutes"`
	}
	resp := getWithETag(t, url, "", &subs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on /substitutes")
	}
	if len(subs.Substitutes) != 1 || subs.Substitutes[0].ID != "beta" || subs.Substitutes[0].Verdict != "equivalent" {
		t.Fatalf("substitutes = %+v", subs.Substitutes)
	}

	if resp := getWithETag(t, url, etag, nil); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", resp.StatusCode)
	}

	// The warmed entry serves repeats without a fresh search: the
	// generator-run counter must not move.
	runs := f.source.Runs()
	getWithETag(t, url, "", nil)
	if got := f.source.Runs(); got != runs {
		t.Errorf("warm substitutes re-ran generation: %d -> %d", runs, got)
	}

	// Retiring a candidate changes the availability fingerprint: stale
	// ETag revalidation must miss and the search re-run.
	if err := f.reg.SetAvailable("beta", false); err != nil {
		t.Fatal(err)
	}
	resp = getWithETag(t, url, etag, &subs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after retirement: %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == etag {
		t.Error("ETag unchanged although a candidate was retired")
	}
	for _, s := range subs.Substitutes {
		if s.ID == "beta" {
			t.Error("retired candidate still ranked")
		}
	}
}

// TestValidatorsAcrossRestart: the /substitutes and /matches validators
// bind to process-local counters (the registry and signature-index
// generations), which restart at zero. A server reopened over the same
// store directory, whose flips bring both counters back to the values
// they had but with another module retired, must not answer an old
// validator 304.
func TestValidatorsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func(retire string) (*fixture, map[string]string) {
		f := newFixture(t, dir)
		f.srv.Comparer.Index = match.NewCatalogIndex(f.ont, f.reg.Modules())
		SyncIndex(f.reg, f.srv.Comparer.Index)
		for _, id := range f.reg.IDs() {
			e, _ := f.reg.Get(id)
			if _, _, err := f.source.Generate(e.Module); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.reg.SetAvailable(retire, false); err != nil {
			t.Fatal(err)
		}
		etags := map[string]string{}
		for _, path := range []string{"/modules/alpha/substitutes", "/matches"} {
			resp := getWithETag(t, f.ts.URL+path, "", nil)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
				t.Fatalf("GET %s: status %d, ETag %q", path, resp.StatusCode, resp.Header.Get("ETag"))
			}
			etags[path] = resp.Header.Get("ETag")
		}
		return f, etags
	}
	before, old := boot("beta")
	regGen, ixGen := before.reg.Generation(), before.srv.Comparer.Index.Generation()
	before.ts.Close()
	if err := before.st.Close(); err != nil {
		t.Fatal(err)
	}

	after, _ := boot("gamma")
	if after.reg.Generation() != regGen || after.srv.Comparer.Index.Generation() != ixGen {
		t.Fatalf("counters after the restart at %d/%d, before at %d/%d",
			after.reg.Generation(), after.srv.Comparer.Index.Generation(), regGen, ixGen)
	}
	for path, etag := range old {
		if resp := getWithETag(t, after.ts.URL+path, etag, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with the ETag minted before the restart: status %d, want 200", path, resp.StatusCode)
		}
	}
}
