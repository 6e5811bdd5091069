package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// selfCoded is a body that encodes itself: one length byte, then the
// text. gob would refuse it outright (no exported fields), so a
// passing round trip proves Marshal/Unmarshal never reached gob.
type selfCoded struct{ text string }

func (s selfCoded) AppendWire(dst []byte) ([]byte, error) {
	if len(s.text) > 255 {
		return nil, errors.New("selfCoded: text too long")
	}
	return append(append(dst, byte(len(s.text))), s.text...), nil
}

func (s *selfCoded) DecodeWire(body []byte) error {
	if len(body) == 0 || int(body[0]) != len(body)-1 {
		return errors.New("selfCoded: bad length byte")
	}
	s.text = string(body[1:])
	return nil
}

func TestMarshalHonoursSelfEncodingAndRaw(t *testing.T) {
	body, err := Marshal(selfCoded{text: "lecture"})
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{7}, "lecture"...); !bytes.Equal(body, want) {
		t.Fatalf("self-encoded body = %q, want %q", body, want)
	}
	var back selfCoded
	if err := Unmarshal(body, &back); err != nil || back.text != "lecture" {
		t.Fatalf("decoded %+v, err %v", back, err)
	}
	if err := Unmarshal(body[:3], &back); err == nil {
		t.Error("a decoder's own error was swallowed")
	}
	if _, err := Marshal(selfCoded{text: string(make([]byte, 300))}); err == nil {
		t.Error("an encoder's own error was swallowed")
	}

	// Raw in: the very same bytes, not a copy and not an encoding.
	raw, err := Marshal(Raw(body))
	if err != nil || &raw[0] != &body[0] || len(raw) != len(body) {
		t.Fatalf("Marshal(Raw) = %q, %v: want the input slice itself", raw, err)
	}
	// Raw out: the body itself.
	var got Raw
	if err := Unmarshal(body, &got); err != nil || &got[0] != &body[0] || len(got) != len(body) {
		t.Fatalf("Unmarshal into *Raw = %q, %v: want the body slice itself", got, err)
	}
}

// TestRawRelaysBodiesVerbatimOverTheWire: a "relay" handler receives a
// self-encoded request as Raw and returns it as Raw; the caller, who
// sent a typed value, decodes the relayed bytes back into one. Neither
// direction of the relay touches a codec, and a Raw request put on the
// wire by a client arrives byte-identical.
func TestRawRelaysBodiesVerbatimOverTheWire(t *testing.T) {
	s := NewServer()
	seen := make(chan []byte, 2)
	s.Handle("relay", func(decode func(any) error) (any, error) {
		var body Raw
		if err := decode(&body); err != nil {
			return nil, err
		}
		seen <- body
		return body, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := NewPool(addr, 1, 5*time.Second)
	defer p.Close()

	var typed selfCoded
	if err := p.Call("relay", selfCoded{text: "push"}, &typed); err != nil || typed.text != "push" {
		t.Fatalf("typed round trip through a raw relay: %+v, %v", typed, err)
	}
	want := append([]byte{4}, "push"...)
	if got := <-seen; !bytes.Equal(got, want) {
		t.Fatalf("relay saw %q, want %q", got, want)
	}

	var back Raw
	if err := p.Call("relay", Raw(want), &back); err != nil || !bytes.Equal(back, want) {
		t.Fatalf("raw round trip: %q, %v", back, err)
	}
	if got := <-seen; !bytes.Equal(got, want) {
		t.Fatalf("relay saw %q for a Raw request, want %q", got, want)
	}
}
