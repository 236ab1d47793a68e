package nn

import (
	"encoding/binary"
	"fmt"
	"slices"

	"marlperf/internal/f64le"
	"marlperf/internal/frame"
	"marlperf/internal/tensor"
)

// Binary checkpoint format for networks and optimizers. Layout (all values
// little-endian):
//
//	network:  magic "MLPN" | uint32 layerCount | per layer:
//	          uint8 kind (0=dense, 1=relu) | dense only: uint32 in, out,
//	          in·out weight float64s, out bias float64s
//	adam:     magic "ADAM" | float64 lr, beta1, beta2, eps | uint64 t |
//	          uint32 paramCount | per param: uint32 len, len float64s (m),
//	          len float64s (v)
//
// Neither has a version field or a trailer of its own: they travel inside
// the checkpoint and policy frames, which seal them.
//
// RNG state is not serialized; a restored trainer continues from a fresh
// exploration stream.

const (
	netMagic  = "MLPN"
	adamMagic = "ADAM"

	kindDense = 0
	kindReLU  = 1
)

// EncodedLen returns the byte length of the network's serialized form — what
// AppendBinary appends — computed from the layer shapes. A layer that cannot
// be serialized counts its kind byte only.
func (n *Network) EncodedLen() int {
	size := len(netMagic) + 4
	for _, l := range n.Layers {
		size++
		if d, ok := l.(*Dense); ok {
			size += 4 + 4 + 8*(len(d.W.Data)+len(d.B.Data))
		}
	}
	return size
}

// AppendBinary appends the network's serialized architecture and parameters
// to dst, growing it at most once (by EncodedLen).
func (n *Network) AppendBinary(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, n.EncodedLen())
	dst = frame.AppendHeader(dst, netMagic, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(n.Layers)))
	for i, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			dst = append(dst, kindDense)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(layer.In()))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(layer.Out()))
			dst = f64le.Append(dst, layer.W.Data)
			dst = f64le.Append(dst, layer.B.Data)
		case *ReLU:
			dst = append(dst, kindReLU)
		default:
			return nil, fmt.Errorf("nn: cannot serialize layer %d of type %T", i, l)
		}
	}
	return dst, nil
}

// ReadNetwork decodes a network written by AppendBinary from d.
func ReadNetwork(d *frame.Decoder) (*Network, error) {
	const maxLayers, maxDim = 1 << 16, 1 << 24
	// Untrusted inputs (policy frames, fuzzed checkpoints) must not be able
	// to demand unbounded memory: beyond the per-dimension caps, the total
	// parameter count across the whole network is budgeted, and a layer's
	// parameters must be there to read, so a header claiming a 2^24×2^24
	// dense layer fails before any allocation.
	const maxTotalParams = 1 << 26
	d.Header(netMagic, 0)
	count := d.U32()
	if count > maxLayers {
		d.Fail("implausible layer count %d", count)
	}
	var totalParams int64
	net := &Network{}
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		switch kind := d.U8(); kind {
		case kindDense:
			in, out := d.U32(), d.U32()
			if in == 0 || out == 0 || in > maxDim || out > maxDim {
				d.Fail("implausible dense dims %dx%d", in, out)
				break
			}
			params := int64(in)*int64(out) + int64(out)
			if totalParams += params; totalParams > maxTotalParams {
				d.Fail("network exceeds %d-parameter budget at layer %d (%dx%d)", int64(maxTotalParams), i, in, out)
				break
			}
			if 8*params > int64(d.Len()) {
				d.Fail("dense layer %d (%dx%d) needs %d bytes, %d left", i, in, out, 8*params, d.Len())
				break
			}
			dense := &Dense{
				W:     tensor.New(int(in), int(out)),
				B:     tensor.New(1, int(out)),
				gradW: tensor.New(int(in), int(out)),
				gradB: tensor.New(1, int(out)),
			}
			d.F64s(dense.W.Data)
			d.F64s(dense.B.Data)
			net.Layers = append(net.Layers, dense)
		case kindReLU:
			net.Layers = append(net.Layers, NewReLU())
		default:
			d.Fail("unknown layer kind %d", kind)
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("nn: network: %w", err)
	}
	return net, nil
}

// EncodedLen returns the byte length of what the optimizer's AppendBinary
// appends.
func (a *Adam) EncodedLen() int {
	size := len(adamMagic) + 4*8 + 8 + 4
	for _, m := range a.m {
		size += 4 + 16*len(m)
	}
	return size
}

// AppendBinary appends the optimizer's hyperparameters and moment
// estimates to dst. The optimizer must be re-bound to its network with
// NewAdam before ReadInto restores the state.
func (a *Adam) AppendBinary(dst []byte) []byte {
	dst = frame.AppendHeader(dst, adamMagic, 0)
	dst = f64le.Append(dst, []float64{a.LR, a.Beta1, a.Beta2, a.Eps})
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.t))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.m)))
	for i := range a.m {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.m[i])))
		dst = f64le.Append(dst, a.m[i])
		dst = f64le.Append(dst, a.v[i])
	}
	return dst
}

// ReadInto restores optimizer state written by AppendBinary from d. The
// receiver must already be bound to a network of the same architecture; on
// an error its moments may be partly overwritten.
func (a *Adam) ReadInto(d *frame.Decoder) error {
	var hyper [4]float64
	d.Header(adamMagic, 0)
	d.F64s(hyper[:])
	t := d.U64()
	if count := d.U32(); d.Err() == nil && int(count) != len(a.m) {
		d.Fail("checkpoint has %d params, optimizer has %d", count, len(a.m))
	}
	for i := 0; i < len(a.m) && d.Err() == nil; i++ {
		if n := d.U32(); d.Err() == nil && int(n) != len(a.m[i]) {
			d.Fail("checkpoint param %d has %d values, optimizer has %d", i, n, len(a.m[i]))
		}
		d.F64s(a.m[i])
		d.F64s(a.v[i])
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("nn: adam: %w", err)
	}
	a.LR, a.Beta1, a.Beta2, a.Eps = hyper[0], hyper[1], hyper[2], hyper[3]
	a.t = int(t)
	return nil
}
