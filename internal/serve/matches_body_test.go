package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"dexa/internal/match"
)

func rawGet(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Header.Get("ETag")
}

// TestMatchesCachedBody pins the cached-bytes serving path: an
// unchanged catalog serves byte-identical response bodies without
// re-encoding, the bytes are exactly the writeJSON rendering of the
// cached matrix, and an annotation change swaps in a new body whose
// matrix reflects the change.
func TestMatchesCachedBody(t *testing.T) {
	f := newFixture(t, "")
	for _, id := range []string{"alpha", "beta", "gamma"} {
		post(t, f.ts.URL+"/modules/"+id+"/generate")
	}
	url := f.ts.URL + "/matches"
	b1, e1 := rawGet(t, url)
	b2, e2 := rawGet(t, url)
	if !bytes.Equal(b1, b2) || e1 != e2 {
		t.Fatal("unchanged catalog served different bodies or ETags")
	}
	// The cached bytes are indistinguishable from a per-request encode:
	// decode, re-encode the way writeJSON does, compare bytes.
	type response struct {
		State  string             `json:"state"`
		Matrix *match.MatchMatrix `json:"matrix"`
	}
	var decoded response
	if err := json.Unmarshal(b1, &decoded); err != nil {
		t.Fatal(err)
	}
	reenc, err := json.MarshalIndent(decoded, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	reenc = append(reenc, '\n')
	if !bytes.Equal(b1, reenc) {
		t.Error("cached body is not the canonical writeJSON rendering")
	}
	if decoded.Matrix.Stats.Equivalent != 2 {
		t.Fatalf("stats = %+v", decoded.Matrix.Stats)
	}

	// Deleting one module's annotation changes the catalog state: the
	// body must change and the matrix must lose alpha's cells.
	if err := f.st.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	b3, e3 := rawGet(t, url)
	if bytes.Equal(b3, b1) || e3 == e1 {
		t.Fatal("annotation change did not produce a new body and ETag")
	}
	decoded = response{}
	if err := json.Unmarshal(b3, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Matrix.Missing) != 1 || decoded.Matrix.Missing[0] != "alpha" {
		t.Fatalf("missing = %v", decoded.Matrix.Missing)
	}
	if decoded.Matrix.Stats.Equivalent != 0 {
		t.Fatalf("stats after delete = %+v", decoded.Matrix.Stats)
	}

	// Restoring the annotation moves the state key again, so the next
	// request builds a fresh matrix in which alpha is equivalent to beta
	// once more.
	post(t, f.ts.URL+"/modules/alpha/generate")
	b4, e4 := rawGet(t, url)
	if bytes.Equal(b4, b3) || e4 == e3 {
		t.Fatal("restored annotation did not produce a new body")
	}
	decoded = response{}
	if err := json.Unmarshal(b4, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Matrix.Stats.Equivalent != 2 || len(decoded.Matrix.Missing) != 0 {
		t.Fatalf("restored matrix = %+v", decoded.Matrix.Stats)
	}
}
