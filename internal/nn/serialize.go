package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"marlperf/internal/f64le"
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
// RNG state is not serialized; a restored trainer continues from a fresh
// exploration stream.

const (
	netMagic  = "MLPN"
	adamMagic = "ADAM"

	kindDense = 0
	kindReLU  = 1
)

// EncodedLen returns the byte length of the network's serialized form — what
// WriteTo writes and AppendBinary appends — computed from the layer shapes.
// A layer that cannot be serialized counts its kind byte only.
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
	dst = append(dst, netMagic...)
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

// writeBufs recycles WriteTo's buffers: a checkpoint writes every network
// of every agent in a row, and a fresh buffer per network would leave the
// checkpoint's whole size behind as garbage.
var writeBufs sync.Pool

// WriteTo serializes the network's architecture and parameters: the bytes
// AppendBinary appends, in one write.
func (n *Network) WriteTo(w io.Writer) (int64, error) {
	buf, _ := writeBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	defer writeBufs.Put(buf)
	var err error
	if *buf, err = n.AppendBinary((*buf)[:0]); err != nil {
		return 0, err
	}
	wn, err := w.Write(*buf)
	return int64(wn), err
}

// ReadNetwork deserializes a network written by WriteTo.
func ReadNetwork(r io.Reader) (*Network, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("nn: reading network magic: %w", err)
	}
	if string(magic[:]) != netMagic {
		return nil, fmt.Errorf("nn: bad network magic %q", magic)
	}
	count, err := readU32(r)
	if err != nil {
		return nil, err
	}
	const maxLayers = 1 << 16
	if count > maxLayers {
		return nil, fmt.Errorf("nn: implausible layer count %d", count)
	}
	// Untrusted inputs (policy frames, fuzzed checkpoints) must not be able
	// to demand unbounded memory: beyond the per-dimension caps, the total
	// parameter count across the whole network is budgeted, so a header
	// claiming a 2^24×2^24 dense layer fails before any allocation.
	const maxTotalParams = 1 << 26
	var totalParams int64
	net := &Network{}
	for i := uint32(0); i < count; i++ {
		kind, err := readU8(r)
		if err != nil {
			return nil, err
		}
		switch kind {
		case kindDense:
			in, err := readU32(r)
			if err != nil {
				return nil, err
			}
			out, err := readU32(r)
			if err != nil {
				return nil, err
			}
			const maxDim = 1 << 24
			if in == 0 || out == 0 || in > maxDim || out > maxDim {
				return nil, fmt.Errorf("nn: implausible dense dims %dx%d", in, out)
			}
			totalParams += int64(in)*int64(out) + int64(out)
			if totalParams > maxTotalParams {
				return nil, fmt.Errorf("nn: network exceeds %d-parameter budget at layer %d (%dx%d)", int64(maxTotalParams), i, in, out)
			}
			d := &Dense{
				W:     tensor.New(int(in), int(out)),
				B:     tensor.New(1, int(out)),
				gradW: tensor.New(int(in), int(out)),
				gradB: tensor.New(1, int(out)),
			}
			if err := f64le.Read(r, d.W.Data); err != nil {
				return nil, err
			}
			if err := f64le.Read(r, d.B.Data); err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, d)
		case kindReLU:
			net.Layers = append(net.Layers, NewReLU())
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %d", kind)
		}
	}
	return net, nil
}

// WriteTo serializes the optimizer's hyperparameters and moment estimates.
// The optimizer must be re-bound to its network with NewAdam before
// ReadInto restores the state.
func (a *Adam) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	if _, err := cw.Write([]byte(adamMagic)); err != nil {
		return cw.n, err
	}
	if err := f64le.Write(cw, []float64{a.LR, a.Beta1, a.Beta2, a.Eps}); err != nil {
		return cw.n, err
	}
	if err := writeU64(cw, uint64(a.t)); err != nil {
		return cw.n, err
	}
	if err := writeU32(cw, uint32(len(a.m))); err != nil {
		return cw.n, err
	}
	for i := range a.m {
		if err := writeU32(cw, uint32(len(a.m[i]))); err != nil {
			return cw.n, err
		}
		if err := f64le.Write(cw, a.m[i]); err != nil {
			return cw.n, err
		}
		if err := f64le.Write(cw, a.v[i]); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// ReadInto restores optimizer state written by WriteTo. The receiver must
// already be bound to a network of the same architecture.
func (a *Adam) ReadInto(r io.Reader) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("nn: reading adam magic: %w", err)
	}
	if string(magic[:]) != adamMagic {
		return fmt.Errorf("nn: bad adam magic %q", magic)
	}
	var hyper [4]float64
	if err := f64le.Read(r, hyper[:]); err != nil {
		return err
	}
	a.LR, a.Beta1, a.Beta2, a.Eps = hyper[0], hyper[1], hyper[2], hyper[3]
	t, err := readU64(r)
	if err != nil {
		return err
	}
	a.t = int(t)
	count, err := readU32(r)
	if err != nil {
		return err
	}
	if int(count) != len(a.m) {
		return fmt.Errorf("nn: checkpoint has %d params, optimizer has %d", count, len(a.m))
	}
	for i := uint32(0); i < count; i++ {
		n, err := readU32(r)
		if err != nil {
			return err
		}
		if int(n) != len(a.m[i]) {
			return fmt.Errorf("nn: checkpoint param %d has %d values, optimizer has %d", i, n, len(a.m[i]))
		}
		if err := f64le.Read(r, a.m[i]); err != nil {
			return err
		}
		if err := f64le.Read(r, a.v[i]); err != nil {
			return err
		}
	}
	return nil
}

// --- encoding helpers ---

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func readU8(r io.Reader) (uint8, error) {
	var b [1]byte
	_, err := io.ReadFull(r, b[:])
	return b[0], err
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	_, err := io.ReadFull(r, b[:])
	return binary.LittleEndian.Uint32(b[:]), err
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	_, err := io.ReadFull(r, b[:])
	return binary.LittleEndian.Uint64(b[:]), err
}
