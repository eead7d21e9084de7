package client

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadEvent drives the SSE frame reader with arbitrary bytes. The
// seed corpus (testdata/fuzz/FuzzReadEvent) holds real result and done
// frames, heartbeats, CRLF line endings, a non-numeric id and a
// truncated tail. Invariants:
//
//   - readEvent never panics, whatever the bytes;
//   - a frame in the server's exact wire format with newline-free
//     fields comes back with the same id, name and data;
//   - that frame is still returned when a corrupt tail follows it.
func FuzzReadEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, id uint64, name, data string, tail []byte) {
		reader := func(b []byte) *BatchStream {
			return &BatchStream{rd: bufio.NewReader(bytes.NewReader(b))}
		}

		// Arbitrary bytes: read frames until the reader reports an
		// error (io.EOF at the latest).
		s := reader(tail)
		for {
			if _, err := s.readEvent(); err != nil {
				break
			}
		}

		if strings.ContainsAny(name, "\r\n") || strings.ContainsAny(data, "\r\n") {
			return // the server never writes a raw line break inside a field
		}
		frame := fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", id, name, data)
		ev, err := reader(append([]byte(frame), tail...)).readEvent()
		if err != nil {
			t.Fatalf("well-formed frame %q: %v", frame, err)
		}
		if ev.id != id || ev.name != name || string(ev.data) != data {
			t.Fatalf("frame %q read back as id=%d name=%q data=%q", frame, ev.id, ev.name, ev.data)
		}
	})
}
