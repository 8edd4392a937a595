package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestFetchExamplesStatusError: a shard's non-200 answer surfaces as a
// wrapped *StatusError, and only a real 404 counts as "not found" — a
// 500 from a shard whose URL contains "404" (a loopback port, a path, a
// module ID) must stay a shard failure.
func TestFetchExamplesStatusError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/gone/") {
			http.Error(w, "no stored examples", http.StatusNotFound)
			return
		}
		http.Error(w, "store unavailable", http.StatusInternalServerError)
	}))
	defer ts.Close()

	router := func(base string) *Router {
		cfg := Config{Shards: []ShardConfig{{Name: "a", URL: base}}}
		ring, err := cfg.Ring()
		if err != nil {
			t.Fatal(err)
		}
		return &Router{Config: cfg, Ring: ring}
	}

	_, err := router(ts.URL+"/dead404").FetchExamples(context.Background(), "mod404")
	if err == nil {
		t.Fatal("failing shard answered without error")
	}
	if !strings.Contains(err.Error(), "404") {
		t.Fatalf("error %q should carry the 404-bearing URL this test is about", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("errors.As(%v) = %+v, want a 500 StatusError", err, se)
	}
	if IsNotFound(err) {
		t.Errorf("a 500 from %s/dead404 classified as not found", ts.URL)
	}

	_, err = router(ts.URL+"/gone").FetchExamples(context.Background(), "mod")
	if !IsNotFound(err) {
		t.Errorf("a shard's 404 not classified as not found: %v", err)
	}
	if IsNotFound(errors.New("GET /api/modules/x404 answered 404")) {
		t.Error("a plain error mentioning 404 classified as not found")
	}
}
