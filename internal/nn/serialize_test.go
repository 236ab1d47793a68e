package nn

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"marlperf/internal/frame"
	"marlperf/internal/tensor"
)

func encodeNetwork(t testing.TB, net *Network) []byte {
	t.Helper()
	data, err := net.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readNetwork decodes data as one network and nothing after it.
func readNetwork(data []byte) (*Network, error) {
	d := frame.NewDecoder(data)
	return ReadNetwork(&d)
}

func readAdam(a *Adam, data []byte) error {
	d := frame.NewDecoder(data)
	return a.ReadInto(&d)
}

func TestNetworkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(rng, 7, 16, 16, 3)
	restored, err := readNetwork(encodeNetwork(t, net))
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Layers) != len(net.Layers) {
		t.Fatalf("restored %d layers, want %d", len(restored.Layers), len(net.Layers))
	}
	for i, p := range net.Params() {
		if !tensor.ApproxEqual(restored.Params()[i], p, 0) {
			t.Fatalf("param %d differs after round-trip", i)
		}
	}
	// The restored network must produce identical outputs.
	x := tensor.New(4, 7)
	x.RandNormal(rng, 0, 1)
	want := net.Forward(x).Clone()
	got := restored.Forward(x)
	if !tensor.ApproxEqual(got, want, 0) {
		t.Fatal("restored network output differs")
	}
}

// EncodedLen is AppendBinary's byte count, worked out from the layer shapes
// alone, and AppendBinary appends behind what dst holds the bytes the commit
// before AppendBinary wrote (CRC b93690b0 for the first network, 3645
// bytes).
func TestEncodedLenMatchesAppendBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, net := range []*Network{
		NewMLP(rng, 7, 16, 16, 3),
		NewMLP(rng, 1, 1),
		NewMLP(rng, 54, 64, 64, 5),
		{},
	} {
		alone := encodeNetwork(t, net)
		if got := net.EncodedLen(); got != len(alone) {
			t.Fatalf("network %d: EncodedLen %d, AppendBinary appended %d bytes", i, got, len(alone))
		}
		prefix := []byte("prefix")
		appended, err := net.AppendBinary(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(appended[len(prefix):], alone) || string(appended[:len(prefix)]) != "prefix" {
			t.Fatalf("network %d: AppendBinary's bytes depend on what dst held", i)
		}
		if i == 0 && (len(alone) != 3645 || crc32.ChecksumIEEE(alone) != 0xb93690b0) {
			t.Fatalf("network 0 serializes to %d bytes, CRC %08x; want 3645, b93690b0", len(alone), crc32.ChecksumIEEE(alone))
		}
	}
}

func TestNetworkRoundTripTrainable(t *testing.T) {
	// A restored network must be trainable: gradients and optimizer state
	// must wire up.
	rng := rand.New(rand.NewSource(2))
	net := NewMLP(rng, 3, 8, 1)
	restored, err := readNetwork(encodeNetwork(t, net))
	if err != nil {
		t.Fatal(err)
	}
	opt := NewAdam(restored, 0.01)
	x := tensor.New(8, 3)
	x.RandNormal(rng, 0, 1)
	target := tensor.New(8, 1)
	target.Fill(1)
	grad := tensor.New(8, 1)
	out := restored.Forward(x)
	first := mse(grad, out, target)
	for i := 0; i < 100; i++ {
		out := restored.Forward(x)
		mse(grad, out, target)
		restored.ZeroGrads()
		restored.Backward(grad)
		opt.Step()
	}
	out = restored.Forward(x)
	last := mse(grad, out, target)
	if last >= first {
		t.Fatalf("restored network did not train: %v -> %v", first, last)
	}
}

func TestReadNetworkRejectsBadMagic(t *testing.T) {
	if _, err := readNetwork([]byte("XXXX....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadNetworkRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := encodeNetwork(t, NewMLP(rng, 4, 4, 1))
	for _, cut := range []int{3, 5, 12, len(data) / 2, len(data) - 1} {
		if _, err := readNetwork(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadNetworkRejectsImplausibleDims(t *testing.T) {
	// magic + 1 layer + dense kind + absurd dims.
	buf := binary.LittleEndian.AppendUint32([]byte(netMagic), 1)
	buf = append(buf, kindDense)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<30)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<30)
	if _, err := readNetwork(buf); err == nil {
		t.Fatal("implausible dims accepted")
	}
}

func TestReadNetworkRejectsParamBudgetOverrun(t *testing.T) {
	// Each dimension alone passes the per-dim cap, but the product blows the
	// total-parameter budget; the decoder must fail before allocating.
	buf := binary.LittleEndian.AppendUint32([]byte(netMagic), 1)
	buf = append(buf, kindDense)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<24)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<24)
	if _, err := readNetwork(buf); err == nil {
		t.Fatal("param-budget overrun accepted")
	}
}

func TestAdamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewMLP(rng, 3, 6, 1)
	opt := NewAdam(net, 0.02)
	// Take a few steps so the moments are non-trivial.
	x := tensor.New(4, 3)
	x.RandNormal(rng, 0, 1)
	target := tensor.New(4, 1)
	grad := tensor.New(4, 1)
	for i := 0; i < 5; i++ {
		out := net.Forward(x)
		mse(grad, out, target)
		net.ZeroGrads()
		net.Backward(grad)
		opt.Step()
	}

	enc := opt.AppendBinary(nil)
	if len(enc) != opt.EncodedLen() {
		t.Fatalf("AppendBinary appended %d bytes, EncodedLen says %d", len(enc), opt.EncodedLen())
	}
	opt2 := NewAdam(net, 0.5) // different lr, will be overwritten
	if err := readAdam(opt2, enc); err != nil {
		t.Fatal(err)
	}
	if opt2.LR != 0.02 || opt2.t != 5 {
		t.Fatalf("restored lr=%v t=%d", opt2.LR, opt2.t)
	}
	for i := range opt.m {
		for j := range opt.m[i] {
			if opt.m[i][j] != opt2.m[i][j] || opt.v[i][j] != opt2.v[i][j] {
				t.Fatalf("moment %d/%d differs after round-trip", i, j)
			}
		}
	}
}

func TestAdamReadIntoRejectsMismatchedArch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := NewAdam(NewMLP(rng, 3, 6, 1), 0.01)
	dst := NewAdam(NewMLP(rng, 3, 9, 1), 0.01) // different hidden width
	if err := readAdam(dst, src.AppendBinary(nil)); err == nil {
		t.Fatal("mismatched architecture accepted")
	}
}

func TestAdamReadIntoRejectsBadMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	opt := NewAdam(NewMLP(rng, 2, 2, 1), 0.01)
	if err := readAdam(opt, []byte("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}
