package cluster

import (
	"testing"

	"sr3/internal/obs"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		tc   obs.SpanContext
	}{
		{"untraced", obs.SpanContext{}},
		{"traced", obs.SpanContext{Trace: 0xDEADBEEF12345678, Span: 0x42}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frame := appendFrameHeader(nil, 1234, 999, c.tc)
			frame = append(frame, "payload"...)
			sendNs, oldestNs, tc, body, err := parseFrameHeader(frame)
			if err != nil {
				t.Fatal(err)
			}
			if sendNs != 1234 || oldestNs != 999 {
				t.Fatalf("timestamps = %d/%d, want 1234/999", sendNs, oldestNs)
			}
			if tc != c.tc {
				t.Fatalf("trace context = %+v, want %+v", tc, c.tc)
			}
			if string(body) != "payload" {
				t.Fatalf("body = %q", body)
			}
		})
	}
}

func TestFrameHeaderRejectsCorruption(t *testing.T) {
	good := appendFrameHeader(nil, 1, 1, obs.SpanContext{})
	short := good[:frameHeaderLen-1]
	if _, _, _, _, err := parseFrameHeader(short); err == nil {
		t.Fatal("short frame accepted")
	}
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	if _, _, _, _, err := parseFrameHeader(badMagic); err == nil {
		t.Fatal("bad magic accepted")
	}
	badVersion := append([]byte(nil), good...)
	badVersion[2] = 99
	if _, _, _, _, err := parseFrameHeader(badVersion); err == nil {
		t.Fatal("unknown version accepted")
	}
}
