package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFrameReader drives the one frame decoder behind WAL replay,
// journal replay and the /wal feed with arbitrary byte streams. It must
// never panic; re-encoding the payloads it returns must reproduce
// exactly the bytes it reports as consumed; a clean end must consume
// everything; a length prefix above maxWALRecordSize must be a torn
// frame that allocates nothing; and once a frame tears, no later call
// may return a payload.
func FuzzFrameReader(f *testing.F) {
	for _, name := range []string{"wal.golden", "walbatch.golden"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		frames := bytes.TrimPrefix(data, []byte(walMagic))
		f.Add(frames)
		f.Add(frames[:len(frames)-3]) // torn payload
		flipped := bytes.Clone(frames)
		flipped[len(flipped)-1] ^= 0xff // CRC mismatch on the last frame
		f.Add(flipped)
	}
	huge := make([]byte, walFrameOverhead)
	binary.BigEndian.PutUint32(huge, maxWALRecordSize+1)
	f.Add(append(EncodeFrame([]byte(`{"seq":1}`)), huge...))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		var reencoded []byte
		var err error
		for {
			var payload []byte
			if payload, err = fr.Next(); err != nil {
				break
			}
			reencoded = append(reencoded, EncodeFrame(payload)...)
		}
		consumed := fr.Consumed()
		if !bytes.Equal(reencoded, data[:consumed]) {
			t.Fatalf("re-encoded payloads differ from the %d consumed input bytes", consumed)
		}
		switch {
		case err == io.EOF:
			if consumed != int64(len(data)) {
				t.Fatalf("clean end after %d of %d bytes", consumed, len(data))
			}
			return
		case !errors.Is(err, ErrTornFrame):
			t.Fatalf("Next returned %v, want io.EOF or ErrTornFrame", err)
		}
		for i := 0; i < 2; i++ {
			if payload, again := fr.Next(); payload != nil || again != ErrTornFrame {
				t.Fatalf("Next after a torn frame = (%d bytes, %v), want (nil, ErrTornFrame)", len(payload), again)
			}
		}

		tail := data[consumed:]
		if len(tail) < walFrameOverhead || binary.BigEndian.Uint32(tail) <= maxWALRecordSize {
			return
		}
		r, huge := new(bytes.Reader), new(FrameReader)
		allocs := testing.AllocsPerRun(1, func() {
			r.Reset(tail)
			*huge = FrameReader{r: r}
			if _, err := huge.Next(); err != ErrTornFrame {
				t.Fatalf("oversized length prefix gave %v, want ErrTornFrame", err)
			}
		})
		if allocs != 0 {
			t.Fatalf("oversized length prefix allocated %.0f times, want 0", allocs)
		}
	})
}

// FuzzLoadSnapshot drives the streaming snapshot loader (through
// readSnapshot, which keeps what loadSnapshot streams only when the
// whole document verifies) with arbitrary documents. It must never
// panic; a damaged document is an error and yields no records; a valid
// snapshot yields exactly the records written; and whatever loads writes
// back and loads again to the same seq and records.
func FuzzLoadSnapshot(f *testing.F) {
	dir := f.TempDir()
	want := []snapshotRecord{
		{Module: "alignA", Hash: "h1", Version: 1, Seq: 1, Examples: goldenSet()},
		{Module: "alignB", Hash: "h2", Version: 3, Seq: 4, Examples: goldenSet()[:1]},
	}
	validPath := filepath.Join(dir, "valid.json")
	if err := writeSnapshot(validPath, snapshotDoc{Version: snapshotVersion, Seq: 4, Records: want}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(validPath)
	if err != nil {
		f.Fatal(err)
	}
	crcAt := bytes.Index(valid, []byte(`"crc": "`)) + len(`"crc": "`)
	flipped := bytes.Clone(valid)
	flipped[crcAt] ^= 0x01 // another character: the checksum no longer matches
	duplicate := bytes.Replace(valid, []byte(`"crc":`), []byte(`"records": [],
  "crc":`), 1)
	damaged := map[string][]byte{
		"truncated":         valid[:len(valid)/2],
		"flipped crc":       flipped,
		"duplicate records": duplicate,
	}
	f.Add(valid)
	for _, data := range damaged {
		f.Add(data)
	}
	emptyCRC, err := recordsCRC(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"version":1,"seq":0,"records":null,"crc":"` + emptyCRC + `"}`))
	f.Add([]byte{})

	canon := func(tb testing.TB, recs []snapshotRecord) []byte {
		tb.Helper()
		data, err := json.Marshal(recs)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	wantJSON := canon(f, want)
	path, again := filepath.Join(dir, "fuzz.json"), filepath.Join(dir, "again.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		doc, err := readSnapshot(path)
		if err != nil {
			if len(doc.Records) != 0 || doc.Seq != 0 {
				t.Fatalf("a rejected snapshot yielded seq %d and %d records (%v)", doc.Seq, len(doc.Records), err)
			}
			if bytes.Equal(data, valid) {
				t.Fatalf("the valid snapshot was rejected: %v", err)
			}
			return
		}
		for name, bad := range damaged {
			if bytes.Equal(data, bad) {
				t.Fatalf("the %s snapshot loaded %d records", name, len(doc.Records))
			}
		}
		got := canon(t, doc.Records)
		if bytes.Equal(data, valid) && (doc.Seq != 4 || !bytes.Equal(got, wantJSON)) {
			t.Fatalf("the valid snapshot loaded seq %d, records %s; want seq 4, records %s", doc.Seq, got, wantJSON)
		}
		if err := writeSnapshot(again, doc); err != nil {
			t.Fatalf("a loaded snapshot does not write back: %v", err)
		}
		reread, err := readSnapshot(again)
		if err != nil {
			t.Fatalf("a loaded snapshot, written back, does not load: %v", err)
		}
		if reread.Seq != doc.Seq || !bytes.Equal(canon(t, reread.Records), got) {
			t.Fatalf("round trip moved seq %d -> %d, records %s -> %s", doc.Seq, reread.Seq, got, canon(t, reread.Records))
		}
	})
}
