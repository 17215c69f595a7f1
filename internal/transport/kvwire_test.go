package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"kaminotx/internal/race"
)

// roundTrip encodes a request and a response into one stream and decodes
// them back.
func roundTrip(t *testing.T, req *KVRequest, resp *KVResponse) (KVRequest, KVResponse) {
	t.Helper()
	var buf bytes.Buffer
	enc, dec := NewKVEncoder(&buf), NewKVDecoder(&buf)
	if err := enc.Request(req); err != nil {
		t.Fatal(err)
	}
	if err := enc.Response(resp); err != nil {
		t.Fatal(err)
	}
	var gotReq KVRequest
	var gotResp KVResponse
	if err := dec.Request(&gotReq); err != nil {
		t.Fatal(err)
	}
	if err := dec.Response(&gotResp); err != nil {
		t.Fatal(err)
	}
	var past KVRequest
	if err := dec.Request(&past); !errors.Is(err, io.EOF) {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
	return gotReq, gotResp
}

// TestKVWireRoundTrip decodes every field as it was encoded, nil and empty
// slices kept apart.
func TestKVWireRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		req  KVRequest
		resp KVResponse
	}{
		{
			name: "every field",
			req: KVRequest{ID: 1<<63 + 7, Kind: KVScan, Tenant: "alpha", Key: 1<<48 - 1,
				Value: []byte("v"), Max: -3, Breakdown: true},
			resp: KVResponse{ID: 1<<63 + 7, Status: KVErrInternal, Err: "boom", Found: true,
				Value: []byte("val"), Keys: []uint64{0, 1 << 40}, Values: [][]byte{[]byte("a"), {}},
				N: -1, PhaseNs: []int64{1, -2, 1 << 40, 4, 5, 0}},
		},
		{
			name: "zero values",
			req:  KVRequest{},
			resp: KVResponse{},
		},
		{
			name: "empty, not nil",
			req:  KVRequest{Kind: KVPut, Value: []byte{}},
			resp: KVResponse{Value: []byte{}, Keys: []uint64{}, Values: [][]byte{}, PhaseNs: []int64{}},
		},
		{
			name: "found but empty get",
			req:  KVRequest{ID: 2, Kind: KVGet, Key: 9},
			resp: KVResponse{ID: 2, Found: true, Value: []byte{}},
		},
		{
			name: "1 KiB put and its ack",
			req:  KVRequest{ID: 3, Kind: KVPut, Key: 49_999, Value: bytes.Repeat([]byte{0xAB}, 1024)},
			resp: KVResponse{ID: 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gotReq, gotResp := roundTrip(t, &tc.req, &tc.resp)
			if !reflect.DeepEqual(gotReq, tc.req) {
				t.Errorf("request: got %+v, want %+v", gotReq, tc.req)
			}
			if !reflect.DeepEqual(gotResp, tc.resp) {
				t.Errorf("response: got %+v, want %+v", gotResp, tc.resp)
			}
		})
	}
}

// TestKVWirePlainGetIsEightBytes checks that a get with no optional field
// costs its length, kind, flags, ID and key and nothing more, and decodes
// with every optional field zero.
func TestKVWirePlainGetIsEightBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := NewKVEncoder(&buf).Request(&KVRequest{ID: 1, Kind: KVGet, Key: 9}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8 { // length, kind, flags, ID, Key
		t.Fatalf("plain get is %d bytes, want 8", buf.Len())
	}
	var got KVRequest
	if err := NewKVDecoder(&buf).Request(&got); err != nil {
		t.Fatal(err)
	}
	if want := (KVRequest{ID: 1, Kind: KVGet, Key: 9}); !reflect.DeepEqual(got, want) {
		t.Fatalf("plain get decoded as %+v, want %+v", got, want)
	}
}

// TestKVWireGolden pins the frame layout the kvwire.go protocol comment
// documents.
func TestKVWireGolden(t *testing.T) {
	var buf bytes.Buffer
	enc := NewKVEncoder(&buf)
	if err := enc.Request(&KVRequest{ID: 1, Kind: KVPut, Key: 300, Value: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	put := []byte{
		11, 0, 0, 0, // body length
		2,          // kind: put
		8,          // flags: value
		1,          // ID
		0xAC, 0x02, // Key 300
		5, 'h', 'e', 'l', 'l', 'o', // value
	}
	if !bytes.Equal(buf.Bytes(), put) {
		t.Errorf("put request\n got % x\nwant % x", buf.Bytes(), put)
	}
	buf.Reset()
	if err := enc.Response(&KVResponse{ID: 1, Found: true, Value: []byte("hi"), PhaseNs: []int64{1, 2, 3, 4, 5, 0}}); err != nil {
		t.Fatal(err)
	}
	get := []byte{
		13, 0, 0, 0, // body length
		0,           // status: ok
		1 | 4 | 32,  // flags: found, value, phases
		1,           // ID
		2, 'h', 'i', // value
		6, 2, 4, 6, 8, 10, 0, // phases: count, then zigzag varints
	}
	if !bytes.Equal(buf.Bytes(), get) {
		t.Errorf("get response\n got % x\nwant % x", buf.Bytes(), get)
	}
}

// TestKVWireRejects covers the frames a decoder must refuse: a length
// prefix over the cap (before reading or allocating its body), a truncated
// body, and bodies that are not the one encoding of their value.
func TestKVWireRejects(t *testing.T) {
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], MaxKVFrame+1)
	var req KVRequest
	if err := NewKVDecoder(bytes.NewReader(huge[:])).Request(&req); !errors.Is(err, ErrKVFrameTooLarge) {
		t.Errorf("oversized length prefix: %v, want ErrKVFrameTooLarge", err)
	}
	if err := NewKVDecoder(bytes.NewReader([]byte{9, 0, 0, 0, 1})).Request(&req); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: %v, want io.ErrUnexpectedEOF", err)
	}
	for name, body := range map[string][]byte{
		"overlong varint":      {1, 0, 0x81, 0x00, 0},
		"unknown flag":         {1, 0x80, 1, 0},
		"trailing byte":        {1, 0, 1, 0, 0},
		"empty tenant flagged": {1, reqTenant, 1, 0, 0},
		"value past the end":   {2, reqValue, 1, 0, 5, 'a'},
	} {
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		if err := NewKVDecoder(bytes.NewReader(append(frame, body...))).Request(&req); !errors.Is(err, errKVMalformed) {
			t.Errorf("%s: %v, want a malformed-frame error", name, err)
		}
	}
	if err := NewKVEncoder(io.Discard).Response(&KVResponse{Keys: []uint64{1}}); err == nil {
		t.Error("scan response with keys but no values encoded")
	}
}

// TestKVWireAllocs pins what one 1 KiB put and its ack cost the codec: the
// server's copy of the value, and nothing else once the buffers are warm.
func TestKVWireAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	var buf bytes.Buffer
	enc, dec := NewKVEncoder(&buf), NewKVDecoder(&buf)
	put := &KVRequest{Kind: KVPut, Key: 12_345, Value: make([]byte, 1024)}
	ack := &KVResponse{Status: KVOK}
	var gotReq KVRequest
	var gotResp KVResponse
	allocs := testing.AllocsPerRun(1000, func() {
		put.ID++
		ack.ID = put.ID
		if enc.Request(put) != nil || dec.Request(&gotReq) != nil ||
			enc.Response(ack) != nil || dec.Response(&gotResp) != nil {
			t.Fatal("round trip failed")
		}
	})
	t.Logf("%.1f allocations per put round trip", allocs)
	if allocs > 2 {
		t.Errorf("%.1f allocations per put round trip, want at most 2", allocs)
	}
}

// FuzzKVWire feeds arbitrary bytes to both decoders. Each must answer with
// an error or a value, never panic, and any frame that decodes must
// re-encode to exactly the bytes it came from.
func FuzzKVWire(f *testing.F) {
	frames := func(reqs []KVRequest, resps []KVResponse) []byte {
		var buf bytes.Buffer
		enc := NewKVEncoder(&buf)
		for i := range reqs {
			if err := enc.Request(&reqs[i]); err != nil {
				f.Fatal(err)
			}
		}
		for i := range resps {
			if err := enc.Response(&resps[i]); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add(frames([]KVRequest{{ID: 1, Kind: KVPut, Tenant: "t", Key: 7, Value: []byte("value"), Breakdown: true}}, nil))
	f.Add(frames([]KVRequest{{ID: 2, Kind: KVGet, Key: 1 << 40}}, nil))
	f.Add(frames([]KVRequest{{ID: 3, Kind: KVScan, Key: 5, Max: 100}}, nil))
	f.Add(frames(nil, []KVResponse{{ID: 1, Status: KVOK, PhaseNs: []int64{1, 2, 3, 4, 5, 0}}}))
	f.Add(frames(nil, []KVResponse{{ID: 2, Found: true, Value: []byte("v")}}))
	f.Add(frames(nil, []KVResponse{{ID: 3, Keys: []uint64{5, 6}, Values: [][]byte{[]byte("a"), []byte("bc")}}}))
	f.Add(frames(nil, []KVResponse{{ID: 4, Status: KVErrBusy, Err: "admission queue full", N: 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var frame []byte
		if len(data) >= 4 {
			n := binary.LittleEndian.Uint32(data)
			if uint64(len(data)) >= 4+uint64(n) {
				frame = data[:4+n]
			}
		}
		check := func(err error, encode func(*KVEncoder) error) {
			if err != nil {
				if len(data) >= 4 && binary.LittleEndian.Uint32(data) > MaxKVFrame && !errors.Is(err, ErrKVFrameTooLarge) {
					t.Fatalf("oversized length prefix answered %v", err)
				}
				return
			}
			var buf bytes.Buffer
			if err := encode(NewKVEncoder(&buf)); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), frame) {
				t.Fatalf("re-encoded frame differs\n got % x\nwant % x", buf.Bytes(), frame)
			}
		}
		var req KVRequest
		err := NewKVDecoder(bytes.NewReader(data)).Request(&req)
		check(err, func(e *KVEncoder) error { return e.Request(&req) })
		var resp KVResponse
		err = NewKVDecoder(bytes.NewReader(data)).Response(&resp)
		check(err, func(e *KVEncoder) error { return e.Response(&resp) })
	})
}

func TestKVPhaseNames(t *testing.T) {
	want := []string{"decode", "admission_wait", "batch_wait", "engine_txn", "order_wait", "resp_write"}
	for ph := KVPhase(0); ph < KVPhaseCount; ph++ {
		if ph.String() != want[ph] {
			t.Errorf("KVPhase(%d).String() = %q, want %q", ph, ph.String(), want[ph])
		}
	}
}
