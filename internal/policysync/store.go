package policysync

import (
	"sync"
	"time"

	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// Store holds the newest published policy frame under a monotonic serving
// version and lets fetchers block until a newer one arrives (the long-poll
// primitive). Publishes validate the frame end to end — CRC and every
// network decode — before it becomes visible, so a corrupt learner push can
// never poison subscribers.
//
// All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	version uint64
	updates uint64
	frame   []byte
	pubCtx  trace.Context // trace position of the newest publish (zero: untraced)
	notify  chan struct{} // closed and replaced on every publish
	closed  bool          // set by Close; parked Waits return immediately

	// One-deep history: the snapshot the newest publish displaced. Canary
	// serving pins the previous version as its stable arm, so the store
	// keeps exactly the last two frames — older ones are gone for good.
	prevVersion uint64
	prevUpdates uint64
	prevFrame   []byte
	prevCtx     trace.Context

	// OnPublish, when non-nil, is invoked after every accepted publish
	// (outside the lock) with the new serving version, the learner's update
	// count, and the frame size. marl-policyd uses it for its log line.
	OnPublish func(version, updates uint64, bytes int)

	published *telemetry.Counter
	rejected  *telemetry.Counter
	versionG  *telemetry.Gauge
	updatesG  *telemetry.Gauge
	bytesG    *telemetry.Gauge
}

// NewStore creates an empty store registering marl_policy_* metrics on reg
// (nil: a private registry).
func NewStore(reg *telemetry.Registry) *Store {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	reg.SetHelp("marl_policy_version", "Serving version of the newest published policy snapshot.")
	reg.SetHelp("marl_policy_published_total", "Policy snapshots accepted for distribution.")
	return &Store{
		notify:    make(chan struct{}),
		published: reg.Counter("marl_policy_published_total"),
		rejected:  reg.Counter("marl_policy_rejected_total"),
		versionG:  reg.Gauge("marl_policy_version"),
		updatesG:  reg.Gauge("marl_policy_learner_updates"),
		bytesG:    reg.Gauge("marl_policy_bytes"),
	}
}

// PublishCtx validates frame and, if intact, makes it the newest version,
// recording the publisher's trace position alongside it so fetch responses
// can relay it to subscribers — the link that stitches learner update →
// policyd publish → actor hot-swap into one trace. The context never enters
// the frame bytes. The frame is retained by reference; callers must not
// mutate it afterwards.
func (s *Store) PublishCtx(frame []byte, tctx trace.Context) (uint64, error) {
	snap, err := DecodeSnapshot(frame)
	if err != nil {
		s.rejected.Inc()
		return 0, err
	}
	return s.install(frame, snap.Updates, tctx), nil
}

func (s *Store) install(frame []byte, updates uint64, tctx trace.Context) uint64 {
	s.mu.Lock()
	if s.version > 0 {
		s.prevVersion = s.version
		s.prevUpdates = s.updates
		s.prevFrame = s.frame
		s.prevCtx = s.pubCtx
	}
	s.version++
	version := s.version
	s.updates = updates
	s.frame = frame
	s.pubCtx = tctx
	if !s.closed {
		close(s.notify)
		s.notify = make(chan struct{})
	}
	s.mu.Unlock()

	s.published.Inc()
	s.versionG.Set(float64(version))
	s.updatesG.Set(float64(updates))
	s.bytesG.Set(float64(len(frame)))
	if s.OnPublish != nil {
		s.OnPublish(version, updates, len(frame))
	}
	return version
}

// Latest returns the newest version, the learner update count it was
// published at, and the raw frame (nil if nothing has been published).
// The frame must be treated as read-only.
func (s *Store) Latest() (version, updates uint64, frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version, s.updates, s.frame
}

// Previous returns the displaced snapshot — the version published just
// before the newest one — or (0, 0, nil) when fewer than two publishes have
// happened. The frame must be treated as read-only.
func (s *Store) Previous() (version, updates uint64, frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prevVersion, s.prevUpdates, s.prevFrame
}

// Pinned returns the frame for an exact version if the store still holds it
// (the newest or the previous publish), along with its learner update count
// and publish-time trace position. ok is false for anything older — the
// store is a two-deep window, not an archive.
func (s *Store) Pinned(version uint64) (updates uint64, frame []byte, tctx trace.Context, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case version != 0 && version == s.version:
		return s.updates, s.frame, s.pubCtx, true
	case version != 0 && version == s.prevVersion:
		return s.prevUpdates, s.prevFrame, s.prevCtx, true
	}
	return 0, nil, trace.Context{}, false
}

// PublishContext returns the newest version and the trace position its
// publish carried (zero Context when untraced). Callers pair it with the
// version a concurrent Wait/Latest returned to avoid relaying a newer
// publish's context for an older frame.
func (s *Store) PublishContext() (uint64, trace.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version, s.pubCtx
}

// Wait blocks until a version newer than after exists or timeout elapses,
// then returns the newest state (which may still be ≤ after on timeout).
// A zero or negative timeout returns immediately.
func (s *Store) Wait(after uint64, timeout time.Duration) (version, updates uint64, frame []byte) {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		if s.version > after || timeout <= 0 || s.closed {
			defer s.mu.Unlock()
			return s.version, s.updates, s.frame
		}
		ch := s.notify
		s.mu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			return s.Latest()
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return s.Latest()
		}
	}
}

// Close releases every parked Wait immediately and makes future Waits
// return without blocking — the graceful-drain primitive: a shutting-down
// marl-policyd closes the store so in-flight long-polls finish now (with
// whatever version is current) instead of holding connections open for
// their full hold time. Publishing to a closed store still works; only
// the blocking behavior changes. Idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.notify)
}
