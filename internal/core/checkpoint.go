package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"marlperf/internal/nn"
	"marlperf/internal/resilience"
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
// optimizer moments, progress counters) followed by a CRC32 trailer.
func (t *Trainer) SaveCheckpoint(dst io.Writer) error {
	w := resilience.NewCRCWriter(dst)
	if _, err := w.Write([]byte(checkpointMagic)); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], checkpointVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write([]byte{byte(t.cfg.Algorithm)}); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:], uint32(t.n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, ag := range t.agents {
		nets := []*nn.Network{ag.actor, ag.targetActor, ag.critic1, ag.targetCritic1}
		if ag.critic2 != nil {
			nets = append(nets, ag.critic2, ag.targetCritic2)
		}
		for _, net := range nets {
			if _, err := net.WriteTo(w); err != nil {
				return err
			}
		}
		opts := []*nn.Adam{ag.actorOpt, ag.critic1Opt}
		if ag.critic2Opt != nil {
			opts = append(opts, ag.critic2Opt)
		}
		for _, opt := range opts {
			if _, err := opt.WriteTo(w); err != nil {
				return err
			}
		}
	}
	var cnt [8]byte
	for _, v := range []uint64{uint64(t.totalSteps), uint64(t.updateCount), uint64(t.episodeCount)} {
		binary.LittleEndian.PutUint64(cnt[:], v)
		if _, err := w.Write(cnt[:]); err != nil {
			return err
		}
	}
	return w.WriteTrailer()
}

// LoadCheckpoint restores state written by SaveCheckpoint into a trainer
// built with the same algorithm, agent count and network architecture. The
// CRC32 trailer is verified over the whole stream before any trainer state
// is touched, so a truncated or bit-flipped file is rejected outright
// rather than partially loaded.
func (t *Trainer) LoadCheckpoint(r io.Reader) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if string(magic[:]) != checkpointMagic {
		return fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("core: reading checkpoint version: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[:]); v != checkpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want %d", v, checkpointVersion)
	}
	// Hash the body, verify the trailer, then parse from memory — no
	// trainer state changes before the checksum is known good.
	body, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading checkpoint: %w", err)
	}
	if len(body) < 4 {
		return fmt.Errorf("core: checkpoint truncated before checksum trailer")
	}
	trailer := binary.LittleEndian.Uint32(body[len(body)-4:])
	body = body[:len(body)-4]
	if got := checkpointCRC(magic[:], hdr[:], body); got != trailer {
		return fmt.Errorf("core: checkpoint checksum mismatch %08x != %08x (corrupt or truncated)", got, trailer)
	}
	return t.loadCheckpointBody(bytes.NewReader(body))
}

// checkpointCRC recomputes the trailer checksum over header and body.
func checkpointCRC(magic, version, body []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, magic)
	crc = crc32.Update(crc, crc32.IEEETable, version)
	return crc32.Update(crc, crc32.IEEETable, body)
}

// loadCheckpointBody parses everything after the magic and version fields.
func (t *Trainer) loadCheckpointBody(r io.Reader) error {
	var hdr [4]byte
	var algo [1]byte
	if _, err := io.ReadFull(r, algo[:]); err != nil {
		return err
	}
	if Algorithm(algo[0]) != t.cfg.Algorithm {
		return fmt.Errorf("core: checkpoint algorithm %v, trainer has %v", Algorithm(algo[0]), t.cfg.Algorithm)
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	if n := binary.LittleEndian.Uint32(hdr[:]); int(n) != t.n {
		return fmt.Errorf("core: checkpoint has %d agents, trainer has %d", n, t.n)
	}
	for _, ag := range t.agents {
		nets := []**nn.Network{&ag.actor, &ag.targetActor, &ag.critic1, &ag.targetCritic1}
		if ag.critic2 != nil {
			nets = append(nets, &ag.critic2, &ag.targetCritic2)
		}
		for _, slot := range nets {
			restored, err := nn.ReadNetwork(r)
			if err != nil {
				return err
			}
			if restored.NumParams() != (*slot).NumParams() {
				return fmt.Errorf("core: checkpoint network has %d params, trainer expects %d",
					restored.NumParams(), (*slot).NumParams())
			}
			nn.HardCopy(*slot, restored)
		}
		// Optimizers are re-bound to the in-place networks, then their
		// moment state is overwritten from the checkpoint.
		ag.actorOpt = nn.NewAdam(ag.actor, t.cfg.LR)
		ag.critic1Opt = nn.NewAdam(ag.critic1, t.cfg.LR)
		opts := []*nn.Adam{ag.actorOpt, ag.critic1Opt}
		if ag.critic2 != nil {
			ag.critic2Opt = nn.NewAdam(ag.critic2, t.cfg.LR)
			opts = append(opts, ag.critic2Opt)
		}
		for _, opt := range opts {
			if err := opt.ReadInto(r); err != nil {
				return err
			}
		}
	}
	var cnt [8]byte
	vals := make([]uint64, 3)
	for i := range vals {
		if _, err := io.ReadFull(r, cnt[:]); err != nil {
			return err
		}
		vals[i] = binary.LittleEndian.Uint64(cnt[:])
	}
	t.totalSteps = int(vals[0])
	t.updateCount = int(vals[1])
	t.episodeCount = int(vals[2])
	return nil
}
