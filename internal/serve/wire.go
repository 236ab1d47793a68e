package serve

import (
	"encoding/binary"
	"fmt"

	"marlperf/internal/f64le"
	"marlperf/internal/frame"
)

// The /act wire format:
//
//	request  f64le observation values, all agents concatenated in agent
//	         order — exactly sum(obsDims) values, no framing. The serving
//	         shape is the frame: a length mismatch is a 400.
//	reply    "MACT" magic, u64le version, u32le agent count, then one
//	         u32le greedy action index per agent.

// actReplyMagic frames a binary action reply.
const actReplyMagic = "MACT"

// EncodeObsFrame appends the observations as the binary request body.
func EncodeObsFrame(dst []byte, obs [][]float64) []byte {
	for _, row := range obs {
		dst = f64le.Append(dst, row)
	}
	return dst
}

// DecodeObsFrame splits a binary request body against the serving widths.
// Where the host allows it (little-endian, body 8-byte aligned) the returned
// rows are a view of body itself, which the caller then keeps unmodified for
// as long as it uses them; otherwise they are decoded into a fresh array.
func DecodeObsFrame(body []byte, obsDims []int) ([][]float64, error) {
	total := 0
	for _, w := range obsDims {
		total += w
	}
	if len(body) != total*8 {
		return nil, fmt.Errorf("serve: binary obs frame is %d bytes, serving shape needs %d (%d f64 values)", len(body), total*8, total)
	}
	var decoded []float64
	vals := f64le.View(body, &decoded)
	obs := make([][]float64, len(obsDims))
	for i, w := range obsDims {
		obs[i], vals = vals[:w:w], vals[w:]
	}
	return obs, nil
}

// EncodeActReply appends the binary reply frame.
func EncodeActReply(dst []byte, version uint64, actions []int) []byte {
	dst = frame.AppendHeader(dst, actReplyMagic, 0)
	dst = binary.LittleEndian.AppendUint64(dst, version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(actions)))
	for _, a := range actions {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(a))
	}
	return dst
}

// DecodeActReply parses a binary reply frame.
func DecodeActReply(body []byte) (version uint64, actions []int, err error) {
	d := frame.NewDecoder(body)
	d.Header(actReplyMagic, 0)
	version = d.U64()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("serve: malformed action reply frame (%d bytes): %w", len(body), err)
	}
	if d.Len() != 4*n {
		return 0, nil, fmt.Errorf("serve: action reply frame is %d bytes, header promises %d actions", len(body), n)
	}
	actions = make([]int, n)
	for i := range actions {
		actions[i] = int(d.U32())
	}
	return version, actions, nil
}
