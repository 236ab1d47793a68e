package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"marlperf/internal/frame"
	"marlperf/internal/nn"
)

// Checkpoint format: magic "MARL" | uint32 version | uint8 algorithm |
// uint32 numAgents | per agent: actor, target actor, critic1, target
// critic1, (MATD3: critic2, target critic2) networks, then actor and
// critic optimizers | uint64 totalSteps, updateCount, episodeCount |
// (v2) uint32 CRC32-IEEE of every preceding byte.
// The replay buffer and RNG stream are not serialized: a restored trainer
// resumes learning from fresh experience with the learned parameters.
// Bundling those alongside the checkpoint is the resilience snapshot's job.
//
// Version history: v1 had no integrity trailer; v2 appends the CRC32 so
// truncated or bit-flipped checkpoints are rejected instead of partially
// loaded. Only v2 is read: a v1 file is refused with a version error.

const (
	checkpointMagic   = "MARL"
	checkpointVersion = 2
)

// SaveCheckpoint writes the trainer's learned state (all networks,
// optimizer moments, progress counters) followed by a CRC32 trailer. The
// bytes are built in one buffer, sized up front, that the trainer keeps for
// the next save.
func (t *Trainer) SaveCheckpoint(w io.Writer) error {
	ckpt, err := t.encodeCheckpoint()
	if err != nil {
		return err
	}
	_, err = w.Write(ckpt)
	return err
}

// encodeCheckpoint builds the checkpoint SaveCheckpoint writes in the
// trainer's checkpoint buffer and returns it: the bytes are the trainer's,
// and the next encode overwrites them.
func (t *Trainer) encodeCheckpoint() ([]byte, error) {
	size := 4 + 4 + 1 + 4 + 3*8 + 4 // header, algorithm, agents, counters, trailer
	for _, ag := range t.agents {
		for _, part := range ag.networks() {
			size += part.net.EncodedLen()
		}
		for _, o := range ag.optimizers() {
			size += (*o.opt).EncodedLen()
		}
	}
	buf := frame.AppendHeader(slices.Grow(t.ckpt[:0], size), checkpointMagic, checkpointVersion)
	buf = append(buf, byte(t.cfg.Algorithm))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.n))
	for _, ag := range t.agents {
		for _, part := range ag.networks() {
			var err error
			if buf, err = part.net.AppendBinary(buf); err != nil {
				return nil, err
			}
		}
		for _, o := range ag.optimizers() {
			buf = (*o.opt).AppendBinary(buf)
		}
	}
	for _, v := range []uint64{uint64(t.totalSteps), uint64(t.updateCount), uint64(t.episodeCount)} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	t.ckpt = frame.Seal(buf, 0)
	return t.ckpt, nil
}

// LoadCheckpoint restores state written by SaveCheckpoint into a trainer
// built with the same algorithm, agent count and network architecture. It
// is all or nothing: the CRC32 trailer is verified over the whole stream,
// then every network and optimizer state is decoded, and only then is any
// of it installed — a truncated, bit-flipped or mismatched checkpoint is
// refused with the trainer untouched.
func (t *Trainer) LoadCheckpoint(r io.Reader) error {
	d, err := frame.Read(r, checkpointMagic, checkpointVersion)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return t.decodeCheckpoint(d)
}

// loadCheckpointBytes is LoadCheckpoint over a checkpoint already in
// memory, decoded where it lies instead of copied off a reader first.
func (t *Trainer) loadCheckpointBytes(data []byte) error {
	d := frame.NewDecoder(data)
	if !d.Header(checkpointMagic, checkpointVersion) {
		return fmt.Errorf("core: checkpoint: %w", d.Err())
	}
	return t.decodeCheckpoint(d)
}

// decodeCheckpoint is LoadCheckpoint from d, a decoder past the header.
// Everything it installs is copied out of d's input.
func (t *Trainer) decodeCheckpoint(d frame.Decoder) error {
	d.Unseal()
	if algo := Algorithm(d.U8()); d.Err() == nil && algo != t.cfg.Algorithm {
		d.Fail("algorithm %v, trainer has %v", algo, t.cfg.Algorithm)
	}
	if n := d.U32(); d.Err() == nil && int(n) != t.n {
		d.Fail("%d agents, trainer has %d", n, t.n)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	nets := make([][]*nn.Network, t.n)
	opts := make([][]*nn.Adam, t.n)
	for i, ag := range t.agents {
		for _, part := range ag.networks() {
			net, err := nn.ReadNetwork(&d)
			if err == nil && net.NumParams() != part.net.NumParams() {
				err = fmt.Errorf("%d params, trainer expects %d", net.NumParams(), part.net.NumParams())
			}
			if err != nil {
				return fmt.Errorf("core: checkpoint agent %d %s: %w", i, part.name, err)
			}
			nets[i] = append(nets[i], net)
		}
		// Each optimizer is decoded into a fresh one bound to the in-place
		// network, which installing the parameters below does not rebind.
		for _, o := range ag.optimizers() {
			opt := nn.NewAdam(o.net, t.cfg.LR)
			if err := opt.ReadInto(&d); err != nil {
				return fmt.Errorf("core: checkpoint agent %d %s optimizer: %w", i, o.name, err)
			}
			opts[i] = append(opts[i], opt)
		}
	}
	var counters [3]uint64
	for i := range counters {
		counters[i] = d.U64()
	}
	if d.Err() == nil && d.Len() != 0 {
		d.Fail("%d bytes after the progress counters", d.Len())
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("core: checkpoint counters: %w", err)
	}
	for i, ag := range t.agents {
		for j, part := range ag.networks() {
			nn.HardCopy(part.net, nets[i][j])
		}
		for j, o := range ag.optimizers() {
			*o.opt = opts[i][j]
		}
	}
	t.totalSteps, t.updateCount, t.episodeCount = int(counters[0]), int(counters[1]), int(counters[2])
	return nil
}
