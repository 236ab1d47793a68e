package nn

import (
	"math/rand"
	"sync"
	"testing"

	"marlperf/internal/tensor"
)

// twin returns a network of the given widths holding a copy of net's
// weights, with gradients and scratch of its own.
func twin(net *Network, widths ...int) *Network {
	c := NewMLP(rand.New(rand.NewSource(0)), widths...)
	HardCopy(c, net)
	return c
}

// TestBindForwardMatchesSource: a workspace bound to a network forwards the
// bits of that network's own forward, sees in-place weight updates, and
// forwards another network's bits once rebound to it.
func TestBindForwardMatchesSource(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewMLP(rng, 6, 8, 4)
	x := tensor.New(5, 6)
	x.RandNormal(rng, 0, 1)
	var ws Network

	requireSameBits(t, "bound forward", ws.Bind(net).Forward(x), net.Forward(x).Clone())

	// The trainer's soft-update and checkpoint-restore pattern writes the
	// weights in place.
	HardCopy(net, NewMLP(rand.New(rand.NewSource(9)), 6, 8, 4))
	requireSameBits(t, "forward after HardCopy", ws.Forward(x), net.Forward(x).Clone())

	other := NewMLP(rand.New(rand.NewSource(10)), 6, 8, 4)
	requireSameBits(t, "rebound forward", ws.Bind(other).Forward(x), other.Forward(x).Clone())
}

// TestBindBackwardWritesSourceGrads: a backward through a workspace leaves
// in the source's gradient tensors the bits the source's own backward would
// leave there — accumulated by BackwardParams, untouched by
// BackwardInput — and never touches the source's scratch.
func TestBindBackwardWritesSourceGrads(t *testing.T) {
	widths := []int{7, 9, 6, 3}
	rng := rand.New(rand.NewSource(4))
	src := NewMLP(rng, widths...)
	ref := twin(src, widths...)
	x, grad := tensor.New(12, 7), tensor.New(12, 3)
	x.RandNormal(rng, 0, 1)
	grad.RandNormal(rng, 0, 1)
	for _, net := range []*Network{src, ref} { // accumulation, not overwrite, is the contract
		for pi, g := range net.Grads() {
			for j := range g.Data {
				g.Data[j] = float64(pi+1) + 0.25*float64(j)
			}
		}
	}
	var ws Network
	ws.Bind(src)
	for i, g := range ws.Grads() {
		if g != src.Grads()[i] {
			t.Fatalf("workspace gradient %d is not the source's tensor", i)
		}
	}

	ws.Forward(x)
	ref.Forward(x)
	ws.BackwardParams(grad)
	ref.BackwardParams(grad)
	for i, g := range src.Grads() {
		requireSameBits(t, "source gradient after BackwardParams", g, ref.Grads()[i])
	}

	ws.Forward(x)
	ref.Forward(x)
	requireSameBits(t, "BackwardInput", ws.BackwardInput(grad), ref.BackwardInput(grad).Clone())
	for i, g := range src.Grads() {
		requireSameBits(t, "source gradient after BackwardInput", g, ref.Grads()[i])
	}

	for i, l := range src.Layers {
		if d, ok := l.(*Dense); ok && (d.lastX != nil || d.out != nil || d.gwScratch != nil || d.wT != nil) {
			t.Fatalf("layer %d of the source holds scratch after passes through a workspace", i)
		}
	}
}

// TestBindScratchIsPrivate: workspaces bound to one network forward
// concurrently; under -race this proves they share no mutable scratch with
// each other or with the source.
func TestBindScratchIsPrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewMLP(rng, 6, 16, 4)
	x := tensor.New(8, 6)
	x.RandNormal(rng, 0, 1)
	want := net.Forward(x).Clone()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws Network
			for r := 0; r < 50; r++ {
				out := ws.Bind(net).Forward(x)
				for i, v := range want.Data {
					if out.Data[i] != v {
						t.Errorf("concurrent workspace forward[%d] = %v, want %v", i, out.Data[i], v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestBindDoesNotAllocate: once a workspace is built, rebinding it between
// networks of its architecture allocates nothing.
func TestBindDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := NewMLP(rng, 6, 8, 8, 4), NewMLP(rng, 6, 8, 8, 4)
	var ws Network
	ws.Bind(a)
	if n := testing.AllocsPerRun(100, func() { ws.Bind(b).Bind(a) }); n != 0 {
		t.Fatalf("rebinding allocates %v times, want 0", n)
	}
}

// TestBindRejectsOtherArchitectures: a workspace's scratch is shaped by the
// network it was first bound to, so binding another shape panics.
func TestBindRejectsOtherArchitectures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var ws Network
	ws.Bind(NewMLP(rng, 6, 8, 4))
	for _, widths := range [][]int{{7, 8, 4}, {6, 8, 5}, {6, 8, 8, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("binding widths %v to a 6-8-4 workspace did not panic", widths)
				}
			}()
			ws.Bind(NewMLP(rng, widths...))
		}()
	}
}

// hasGrads reports whether any dense layer of net holds gradient tensors.
func hasGrads(net *Network) bool {
	for _, l := range net.Layers {
		if d, ok := l.(*Dense); ok && d.gradW != nil {
			return true
		}
	}
	return false
}

// TestGradientsOnlyWhereTrained: a network gets gradients only when
// something trains it — NewAdam or a parameter backward — so a network that
// only forwards, built or decoded, carries none, and a workspace bound to
// one panics on a parameter backward instead of accumulating into gradients
// of its own.
func TestGradientsOnlyWhereTrained(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, grad := tensor.New(4, 6), tensor.New(4, 3)
	x.RandNormal(rng, 0, 1)
	grad.RandNormal(rng, 0, 1)

	target := NewMLP(rng, 6, 8, 3)
	target.Forward(x)
	var ws Network
	ws.Bind(target).Forward(x)
	for name, backward := range map[string]func(*tensor.Matrix) *tensor.Matrix{
		"Backward":       ws.Backward,
		"BackwardParams": func(g *tensor.Matrix) *tensor.Matrix { ws.BackwardParams(g); return nil },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s through a workspace bound to a network without gradients did not panic", name)
				}
			}()
			backward(grad)
		}()
	}
	if hasGrads(target) || hasGrads(&ws) {
		t.Fatal("a forward-only network or its workspace carries gradients")
	}
	// An input-only backward needs no gradients.
	ws.Forward(x)
	ws.BackwardInput(grad)

	decoded, err := readNetwork(encodeNetwork(t, target))
	if err != nil {
		t.Fatal(err)
	}
	if hasGrads(decoded) {
		t.Fatal("a decoded network carries gradients")
	}
	NewAdam(decoded, 0.01)
	if !hasGrads(decoded) {
		t.Fatal("NewAdam left its network without gradients")
	}
	target.Forward(x)
	target.Backward(grad)
	if !hasGrads(target) {
		t.Fatal("a parameter backward left its network without gradients")
	}
}
