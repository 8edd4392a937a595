package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"testing"

	"dexa/internal/store"
)

// FuzzParseConfig checks that no config document panics the parser or
// the ring build, and that an accepted one is a single JSON value whose
// virtual-node count lies in 0..MaxVirtualNodes and whose ring holds
// exactly shards × virtual nodes points (at most shards ×
// MaxVirtualNodes), placing every module on a member shard.
func FuzzParseConfig(f *testing.F) {
	for _, s := range []string{
		`{"virtualNodes": 32, "shards": [{"name": "a", "url": "http://127.0.0.1:1"}, {"name": "b", "url": "http://127.0.0.1:2"}]}`,
		`{"shards": [{"name": "a", "url": "http://x"}]}`,
		`{"shards": []}`,
		`{"shards": [{"name": "a", "url": "no-scheme"}]}`,
		`{"shards": [{"name": "a", "url": "http://x"}], "bogus": 1}`,
		// Accepted before virtualNodes was bounded: a 6e9-point ring
		// allocation, and a negative count silently meaning the default.
		`{"virtualNodes": 2000000000, "shards": [{"name": "a", "url": "http://a"}, {"name": "b", "url": "http://b"}, {"name": "c", "url": "http://c"}]}`,
		`{"virtualNodes": -1, "shards": [{"name": "a", "url": "http://x"}]}`,
		// Accepted before trailing data was refused.
		`{"shards": [{"name": "a", "url": "http://x"}]} {"shards": []}`,
		`{"shards": [{"name": "a", "url": "http://x"}]}garbage`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a document that is not one JSON value: %q", data)
		}
		if cfg.VirtualNodes < 0 || cfg.VirtualNodes > MaxVirtualNodes {
			t.Fatalf("accepted virtualNodes %d outside 0..%d", cfg.VirtualNodes, MaxVirtualNodes)
		}
		r, err := cfg.Ring()
		if err != nil {
			t.Fatalf("accepted config builds no ring: %v", err)
		}
		vnodes := cfg.VirtualNodes
		if vnodes == 0 {
			vnodes = DefaultVirtualNodes
		}
		if want := len(cfg.Shards) * vnodes; len(r.points) != want || want > len(cfg.Shards)*MaxVirtualNodes {
			t.Fatalf("ring holds %d points for %d shards × %d virtual nodes", len(r.points), len(cfg.Shards), vnodes)
		}
		if owner := r.Owner("module"); cfg.ShardURL(owner) == "" {
			t.Fatalf("ring placed a module on %q, not a member", owner)
		}
	})
}

// feedBody returns the raw frame stream a feed answer carries for four
// put records — the body TestFeedCompressionNegotiation decodes — and
// its deflated form.
func feedBody(f *testing.F) (raw, deflated []byte) {
	var buf bytes.Buffer
	for i, id := range []string{"a", "b", "c", "d"} {
		payload, err := json.Marshal(store.Record{Seq: uint64(i + 1), Op: store.OpPut, Module: id, Hash: "h-" + id, Version: 1, Examples: feedSet(id)})
		if err != nil {
			f.Fatal(err)
		}
		buf.Write(store.EncodeFrame(payload))
	}
	raw = buf.Bytes()
	return raw, deflate(f, raw)
}

func deflate(f *testing.F, b []byte) []byte {
	var out bytes.Buffer
	zw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		f.Fatal(err)
	}
	zw.Write(b)
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}
	return out.Bytes()
}

// FuzzDecodeFrameStream drives the follower's compressed-feed path —
// flate.NewReader over the body, then DecodeFrameStream — with arbitrary
// bodies. It must never panic; a stream that does not inflate, or that
// holds a frame whose CRC does not match its payload, must be an error;
// a rejected stream returns no records; an accepted one returns one
// record per frame.
func FuzzDecodeFrameStream(f *testing.F) {
	raw, deflated := feedBody(f)
	flipped := append([]byte(nil), raw...)
	flipped[5] ^= 0xFF // inside the first frame's CRC
	f.Add(raw)
	f.Add(deflated)
	f.Add(deflated[:len(deflated)/2])
	f.Add(deflate(f, flipped))
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, err := DecodeFrameStream(flate.NewReader(bytes.NewReader(body)))
		if err != nil {
			if recs != nil {
				t.Fatalf("rejected stream (%v) returned %d records", err, len(recs))
			}
			return
		}
		inflated, ierr := io.ReadAll(flate.NewReader(bytes.NewReader(body)))
		if ierr != nil {
			t.Fatalf("accepted a body that does not inflate: %v", ierr)
		}
		frames := 0
		for rest := inflated; len(rest) > 0; frames++ {
			if len(rest) < 8 {
				t.Fatalf("accepted a stream ending in a %d-byte partial header", len(rest))
			}
			n := int(binary.BigEndian.Uint32(rest[0:4]))
			if n > len(rest)-8 {
				t.Fatalf("accepted a frame whose payload is cut short")
			}
			if crc32.ChecksumIEEE(rest[8:8+n]) != binary.BigEndian.Uint32(rest[4:8]) {
				t.Fatalf("accepted frame %d with a CRC mismatch", frames)
			}
			rest = rest[8+n:]
		}
		if len(recs) != frames {
			t.Fatalf("accepted stream of %d frames returned %d records", frames, len(recs))
		}
	})
}
