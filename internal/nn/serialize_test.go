package nn

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"marlperf/internal/tensor"
)

func TestNetworkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(rng, 7, 16, 16, 3)
	var buf bytes.Buffer
	if _, err := net.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadNetwork(&buf)
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

// EncodedLen is WriteTo's byte count, worked out from the layer shapes
// alone, and AppendBinary appends exactly WriteTo's bytes — which are the
// bytes the commit before AppendBinary wrote (CRC b93690b0 for the first
// network, 3645 bytes).
func TestEncodedLenMatchesWriteTo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, net := range []*Network{
		NewMLP(rng, 7, 16, 16, 3),
		NewMLP(rng, 1, 1),
		NewMLP(rng, 54, 64, 64, 5),
		{},
	} {
		var buf bytes.Buffer
		n, err := net.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := net.EncodedLen(); got != int(n) || got != buf.Len() {
			t.Fatalf("network %d: EncodedLen %d, WriteTo wrote %d bytes (reported %d)", i, got, buf.Len(), n)
		}
		prefix := []byte("prefix")
		appended, err := net.AppendBinary(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(appended[len(prefix):], buf.Bytes()) || string(appended[:len(prefix)]) != "prefix" {
			t.Fatalf("network %d: AppendBinary's bytes differ from WriteTo's", i)
		}
		if i == 0 && (n != 3645 || crc32.ChecksumIEEE(buf.Bytes()) != 0xb93690b0) {
			t.Fatalf("network 0 serializes to %d bytes, CRC %08x; want 3645, b93690b0", n, crc32.ChecksumIEEE(buf.Bytes()))
		}
	}
}

func TestNetworkRoundTripTrainable(t *testing.T) {
	// A restored network must be trainable: gradients and optimizer state
	// must wire up.
	rng := rand.New(rand.NewSource(2))
	net := NewMLP(rng, 3, 8, 1)
	var buf bytes.Buffer
	if _, err := net.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadNetwork(&buf)
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
	first := MSELoss(grad, out, target)
	for i := 0; i < 100; i++ {
		out := restored.Forward(x)
		MSELoss(grad, out, target)
		restored.ZeroGrads()
		restored.Backward(grad)
		opt.Step()
	}
	out = restored.Forward(x)
	last := MSELoss(grad, out, target)
	if last >= first {
		t.Fatalf("restored network did not train: %v -> %v", first, last)
	}
}

func TestReadNetworkRejectsBadMagic(t *testing.T) {
	if _, err := ReadNetwork(strings.NewReader("XXXX....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadNetworkRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewMLP(rng, 4, 4, 1)
	var buf bytes.Buffer
	if _, err := net.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, 5, 12, len(data) / 2, len(data) - 1} {
		if _, err := ReadNetwork(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadNetworkRejectsImplausibleDims(t *testing.T) {
	// magic + 1 layer + dense kind + absurd dims.
	var buf bytes.Buffer
	buf.WriteString(netMagic)
	writeU32(&buf, 1)
	buf.WriteByte(kindDense)
	writeU32(&buf, 1<<30)
	writeU32(&buf, 1<<30)
	if _, err := ReadNetwork(&buf); err == nil {
		t.Fatal("implausible dims accepted")
	}
}

func TestReadNetworkRejectsParamBudgetOverrun(t *testing.T) {
	// Each dimension alone passes the per-dim cap, but the product blows the
	// total-parameter budget; the decoder must fail before allocating.
	var buf bytes.Buffer
	buf.WriteString(netMagic)
	writeU32(&buf, 1)
	buf.WriteByte(kindDense)
	writeU32(&buf, 1<<24)
	writeU32(&buf, 1<<24)
	if _, err := ReadNetwork(&buf); err == nil {
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
		MSELoss(grad, out, target)
		net.ZeroGrads()
		net.Backward(grad)
		opt.Step()
	}

	var buf bytes.Buffer
	if _, err := opt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	opt2 := NewAdam(net, 0.5) // different lr, will be overwritten
	if err := opt2.ReadInto(&buf); err != nil {
		t.Fatal(err)
	}
	if opt2.LR != 0.02 || opt2.StepCount() != 5 {
		t.Fatalf("restored lr=%v t=%d", opt2.LR, opt2.StepCount())
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
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewAdam(NewMLP(rng, 3, 9, 1), 0.01) // different hidden width
	if err := dst.ReadInto(&buf); err == nil {
		t.Fatal("mismatched architecture accepted")
	}
}

func TestAdamReadIntoRejectsBadMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	opt := NewAdam(NewMLP(rng, 2, 2, 1), 0.01)
	if err := opt.ReadInto(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}
