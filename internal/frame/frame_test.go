package frame

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

const testMagic = "TEST"

func encode(payloads ...string) []byte {
	var buf []byte
	for _, p := range payloads {
		buf = Append(buf, testMagic, []byte(p))
	}
	return buf
}

func scanAll(t *testing.T, data []byte, maxLen int) ([]string, Stats) {
	t.Helper()
	var got []string
	st, err := Scan(bytes.NewReader(data), testMagic, maxLen, func(p []byte) bool {
		got = append(got, string(p))
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return got, st
}

func TestScanRoundTrip(t *testing.T) {
	want := []string{"one", "", "three", string(bytes.Repeat([]byte{0xAB}, 10_000))}
	data := encode(want...)
	got, st := scanAll(t, data, 1<<20)
	if len(got) != len(want) || st.Records != len(want) || st.Dropped != 0 ||
		st.Good != int64(len(data)) || st.TailBytes != 0 {
		t.Fatalf("got %d payloads, stats %+v; want %d clean", len(got), st, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestScanTornAtEveryCut: cutting the last frame anywhere keeps the frames
// before it and counts exactly one dropped frame and the cut bytes.
func TestScanTornAtEveryCut(t *testing.T) {
	data := encode("alpha", "beta", "gamma")
	goodEnd := int64(len(encode("alpha", "beta")))
	for cut := goodEnd + 1; cut < int64(len(data)); cut++ {
		got, st := scanAll(t, data[:cut], 1<<20)
		if len(got) != 2 || st.Dropped != 1 || st.Good != goodEnd || st.TailBytes != cut-goodEnd {
			t.Fatalf("cut=%d: %d payloads, stats %+v", cut, len(got), st)
		}
	}
}

func TestScanStopsAtDamage(t *testing.T) {
	good := encode("keep")
	cases := map[string][]byte{
		"bad magic": append(append([]byte{}, good...), encode("x")[0]^0xff),
		"bad crc": func() []byte {
			b := encode("keep", "flip")
			b[len(b)-1] ^= 0xff
			return b
		}(),
		"over max": Append(append([]byte{}, good...), testMagic, bytes.Repeat([]byte{1}, 65)),
	}
	for name, data := range cases {
		got, st := scanAll(t, data, 64)
		if len(got) != 1 || st.Dropped != 1 || st.Good != int64(len(good)) ||
			st.TailBytes != int64(len(data)-len(good)) {
			t.Errorf("%s: %d payloads, stats %+v", name, len(got), st)
		}
	}
}

func TestScanVisitorRejects(t *testing.T) {
	data := encode("a", "stop", "c")
	st, err := Scan(bytes.NewReader(data), testMagic, 64, func(p []byte) bool { return string(p) != "stop" })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.Dropped != 1 || st.Good != int64(len(encode("a"))) {
		t.Fatalf("stats %+v, want the rejected frame cut", st)
	}
}

// TestScanForgedLengthBoundedAlloc: a header declaring a 1 GiB payload with
// nothing behind it must not allocate the declared size.
func TestScanForgedLengthBoundedAlloc(t *testing.T) {
	data := encode("ok")
	data = append(data, testMagic...)
	data = binary.LittleEndian.AppendUint32(data, 1<<30)
	data = binary.LittleEndian.AppendUint32(data, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, st := scanAll(t, data, 1<<30)
	runtime.ReadMemStats(&after)
	if st.Records != 1 || st.Dropped != 1 || st.TailBytes != HeaderLen {
		t.Fatalf("stats %+v", st)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("Scan allocated %d bytes for a forged length", d)
	}
}

// FuzzScan: on any input Scan never panics, accounts for every byte, and
// the accepted prefix is exactly the re-encoding of the visited payloads.
func FuzzScan(f *testing.F) {
	f.Add([]byte{})
	f.Add(encode("a", "", "hello world"))
	f.Add(encode("torn")[:7])
	f.Add(append(encode("x"), "TEST\xff\xff\xff\x7f\x00\x00\x00\x00"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var re []byte
		st, err := Scan(bytes.NewReader(data), testMagic, 1<<16, func(p []byte) bool {
			re = Append(re, testMagic, p)
			return true
		})
		if err != nil {
			t.Fatalf("Scan over a byte slice: %v", err)
		}
		if st.Good+st.TailBytes != int64(len(data)) {
			t.Fatalf("Good %d + TailBytes %d != %d", st.Good, st.TailBytes, len(data))
		}
		if !bytes.Equal(re, data[:st.Good]) {
			t.Fatalf("re-encoded %d visited payloads differ from the accepted prefix", st.Records)
		}
		if st.Dropped > 1 || (st.Dropped == 0) != (st.TailBytes == 0) {
			t.Fatalf("stats %+v: a tail must be exactly one dropped frame", st)
		}
	})
}
