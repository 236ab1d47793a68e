package nn

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzReadNetwork hardens the checkpoint parser: arbitrary byte strings
// must never panic or allocate absurdly — they either parse to a valid
// network or return an error.
func FuzzReadNetwork(f *testing.F) {
	// Seed with a valid checkpoint and a few mutations.
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(rng, 3, 4, 2)
	valid := encodeNetwork(f, net)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("MLPN"))
	mutated := append([]byte(nil), valid...)
	mutated[6] ^= 0xFF
	f.Add(mutated)
	// Allocation attack: a header claiming one dense layer with maximal dims
	// would demand 2^48 float64s if dims were only capped individually. The
	// total-parameter budget must reject it before allocating.
	attack := []byte("MLPN")
	attack = binary.LittleEndian.AppendUint32(attack, 1)     // 1 layer
	attack = append(attack, 0)                               // dense
	attack = binary.LittleEndian.AppendUint32(attack, 1<<24) // in
	attack = binary.LittleEndian.AppendUint32(attack, 1<<24) // out
	f.Add(attack)

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := readNetwork(data)
		if err != nil {
			return
		}
		// Anything that parses must be usable.
		if restored.NumParams() < 0 {
			t.Fatal("negative param count")
		}
	})
}

// FuzzAdamReadInto hardens the optimizer-state parser the same way.
func FuzzAdamReadInto(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	opt := NewAdam(NewMLP(rng, 2, 3, 1), 0.01)
	f.Add(opt.AppendBinary(nil))
	f.Add([]byte("ADAM"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		target := NewAdam(NewMLP(rand.New(rand.NewSource(3)), 2, 3, 1), 0.01)
		_ = readAdam(target, data) // must not panic
	})
}
