package store

import (
	"bytes"
	"encoding/binary"
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
