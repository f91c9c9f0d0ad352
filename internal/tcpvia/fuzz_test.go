package tcpvia

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
)

// frameBytes is what writeFrame puts on the wire for one frame.
func frameBytes(t testing.TB, kind byte, payload []byte) []byte {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		writeFrame(client, kind, payload)
		client.Close()
	}()
	raw, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzReadFrame feeds the real-socket twin's frame decoder a byte stream from
// a peer that may be anything: every frame the stream really holds comes out
// as sent, a length past maxFrame is refused before anything is allocated
// for it, and a stream that stops inside a header or a payload is an error,
// not a short frame. The seeds are frames writeFrame itself produced, whole,
// back to back and cut short, so the corpus runs in tier-1.
func FuzzReadFrame(f *testing.F) {
	data := frameBytes(f, kData, []byte("sixteen byte msg"))
	f.Add(data)
	f.Add(append(frameBytes(f, kAccept, u32(7)), frameBytes(f, kClose, nil)...))
	f.Add(data[:3])                              // stops inside the header
	f.Add(data[:len(data)-4])                    // stops inside the payload
	f.Add([]byte{kData, 0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB claimed
	f.Add(binary.LittleEndian.AppendUint32([]byte{kData}, maxFrame+1))

	f.Fuzz(func(t *testing.T, stream []byte) {
		// A length within maxFrame sizes the payload buffer before the bytes
		// arrive; that is what the limit is for. The fuzzer need not spend
		// the machine's memory re-proving it.
		for rest := stream; len(rest) >= 5; {
			size := int(binary.LittleEndian.Uint32(rest[1:5]))
			if size > len(rest)-5 {
				if size <= maxFrame && size > 1<<20 {
					t.Skip("a large frame the stream does not hold")
				}
				break
			}
			rest = rest[5+size:]
		}

		client, server := net.Pipe()
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			client.Write(stream) // fails, harmlessly, once the reader has given up
			client.Close()
		}()
		defer func() {
			server.Close()
			<-sent
		}()
		for rest := stream; ; {
			kind, payload, err := readFrame(server)
			if len(rest) < 5 {
				if err == nil {
					t.Fatalf("a frame out of a %d-byte header", len(rest))
				}
				return
			}
			size := int(binary.LittleEndian.Uint32(rest[1:5]))
			if size > maxFrame || size > len(rest)-5 {
				if err == nil {
					t.Fatalf("a %d-byte frame accepted with %d bytes behind its header (limit %d)", size, len(rest)-5, maxFrame)
				}
				return
			}
			if err != nil || kind != rest[0] || !bytes.Equal(payload, rest[5:5+size]) {
				t.Fatalf("frame kind %d, %d bytes, came out as kind %d, %d bytes, %v", rest[0], size, kind, len(payload), err)
			}
			rest = rest[5+size:]
		}
	})
}
