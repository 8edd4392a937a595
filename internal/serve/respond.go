package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// answer is an encoded JSON body with its validator, what memos keep and
// respond writes; etag is empty on an answer that carries none.
type answer struct {
	body []byte
	etag string
}

func (a answer) keptBytes() int { return len(a.body) }

// respond writes a with status: a body as JSON, and an etag with
// Cache-Control: no-cache. A 304 is an answer with an etag and no body.
func respond(w http.ResponseWriter, status int, a answer) {
	h := w.Header()
	if a.etag != "" {
		h.Set("ETag", a.etag)
		h.Set("Cache-Control", "no-cache")
	}
	if a.body != nil {
		h.Set("Content-Type", "application/json")
	}
	w.WriteHeader(status)
	w.Write(a.body)
}

// writeJSON writes v, rendered by encodeJSONBody, with status and no
// validator.
func writeJSON(w http.ResponseWriter, status int, v any) { respondJSON(w, status, "", v) }

// respondJSON writes v, rendered by encodeJSONBody, with status and etag
// (none when empty).
func respondJSON(w http.ResponseWriter, status int, etag string, v any) {
	body, err := encodeJSONBody(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	respond(w, status, answer{body: body, etag: etag})
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// etagMatches implements the If-None-Match comparison: a literal "*"
// matches anything, otherwise any listed entity tag must equal ours
// (weak validators compare equal under the weak comparison HTTP caching
// uses).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// notModified answers 304 when the request's If-None-Match matches etag
// and reports whether it did; otherwise it sets nothing, and the 200
// carries its validators through respond.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	if !etagMatches(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	respond(w, http.StatusNotModified, answer{etag: etag})
	return true
}

// encodeJSONBody renders v as every JSON body is rendered: the entry no
// object encloses (depth -1), with a trailing newline. The slice may
// have spare capacity: a memo that keeps the body keeps exact(body), and
// a skeleton goes to splice, which builds an exact body itself.
func encodeJSONBody(v any) ([]byte, error) {
	body, err := encodeEntry(v, -1)
	return append(body, '\n'), err
}

// exact returns a copy of b whose capacity is its length, for memos that
// keep bodies as long as their keys hold.
func exact(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }

// encodeEntry renders v, HTML-escaped, as one element of a list that
// depth objects enclose (1 for a field of the body's own object), byte
// for byte as a whole encode renders the element there.
func encodeEntry(v any, depth int) ([]byte, error) {
	return json.MarshalIndent(v, indent(depth+1), "  ")
}

// indent is the line prefix of a value that depth objects enclose, for
// every depth serve splices at.
func indent(depth int) string { return "        "[:2*depth] }

// splice returns skel, encoded by encodeJSONBody with field an empty
// list depth objects deep, with frags (by encodeEntry at depth) as the
// list's elements: the whole encode of the value holding them, in a new
// slice whose capacity is its length, with no fragments too. On return
// each frags[i] points into the result, so kept fragments cost no second
// copy; a caller that must not move its fragments passes a copy of the
// slice.
func splice(skel []byte, field string, depth int, frags [][]byte) []byte {
	if len(frags) == 0 {
		return exact(skel)
	}
	// A raw newline never occurs inside an encoded string, so the empty
	// list is found only at field itself.
	var buf [64]byte
	empty := append(append(buf[:0], '\n'), indent(depth)...)
	empty = append(append(append(empty, '"'), field...), `": []`...)
	at := bytes.Index(skel, empty) + len(empty) - 1 // the closing ]
	open, end := indent(depth+1), indent(depth)
	size := len(skel) + 1 + len(end)
	for _, f := range frags {
		size += len(",\n") + len(open) + len(f)
	}
	body := make([]byte, 0, size)
	body = append(body, skel[:at]...)
	for i, f := range frags {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(append(body, '\n'), open...)
		body = append(body, f...)
		frags[i] = body[len(body)-len(f) : len(body) : len(body)]
	}
	body = append(append(body, '\n'), end...)
	return append(body, skel[at:]...)
}
