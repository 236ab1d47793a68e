package resilience

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"marlperf/internal/faultnet"
)

// ErrInjectedFault is the error the retry tests below fail their attempts
// with.
var ErrInjectedFault = faultnet.ErrInjectedFault

func fastRetry() RetryPolicy {
	return RetryPolicy{Attempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
}

func newTestStore(t *testing.T, retain int) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir(), retain)
	if err != nil {
		t.Fatal(err)
	}
	st.Retry = fastRetry()
	return st
}

func payloadFor(seq uint64) []Section {
	return []Section{{Kind: SectionTrainer, Payload: bytes.Repeat([]byte{byte(seq)}, 128)}}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	st := newTestStore(t, 3)
	if _, err := st.Save(7, payloadFor(7)); err != nil {
		t.Fatal(err)
	}
	snap, seq, skipped, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || len(skipped) != 0 {
		t.Fatalf("seq=%d skipped=%v", seq, skipped)
	}
	got, ok := snap.Section(SectionTrainer)
	if !ok || !bytes.Equal(got, payloadFor(7)[0].Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestStoreRotationKeepsNewest(t *testing.T) {
	st := newTestStore(t, 2)
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := st.Save(seq, payloadFor(seq)); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
		t.Fatalf("generations = %v, want [4 5]", gens)
	}
}

func TestStoreEmptyDirReportsNoSnapshot(t *testing.T) {
	st := newTestStore(t, 2)
	if _, _, _, err := st.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

func TestStoreFallsBackPastCorruptNewest(t *testing.T) {
	st := newTestStore(t, 3)
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := st.Save(seq, payloadFor(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Newest truncated (torn write), second-newest bit-flipped (bit rot):
	// recovery must land on generation 1.
	fi, err := os.Stat(st.Path(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultnet.TruncateFile(st.Path(3), fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := faultnet.FlipBitInFile(st.Path(2), 40, 0x10); err != nil {
		t.Fatal(err)
	}
	snap, seq, skipped, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || len(skipped) != 2 {
		t.Fatalf("seq=%d skipped=%d, want 1 and 2", seq, len(skipped))
	}
	if skipped[0].Seq != 3 || skipped[1].Seq != 2 {
		t.Fatalf("skipped order = %v", skipped)
	}
	if got, _ := snap.Section(SectionTrainer); !bytes.Equal(got, payloadFor(1)[0].Payload) {
		t.Fatal("fell back to wrong payload")
	}
}

func TestStoreAllCorruptReportsEveryGeneration(t *testing.T) {
	st := newTestStore(t, 2)
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := st.Save(seq, payloadFor(seq)); err != nil {
			t.Fatal(err)
		}
		if err := faultnet.TruncateFile(st.Path(seq), 8); err != nil {
			t.Fatal(err)
		}
	}
	_, _, skipped, err := st.LoadLatest()
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %v, want both generations", skipped)
	}
}

// TestStoreCrashPointsLeaveRecoverableState builds on disk each state a
// process death inside Save can leave for generation 3 — Save is
// WriteFileAtomic (temp file, fsync, rename, directory fsync) followed by
// rotate — and checks that a restarted store recovers the newest intact
// generation, sweeps every temp file and accepts the next Save. Recovery
// reads only the disk, so these are all the states a death can leave.
func TestStoreCrashPointsLeaveRecoverableState(t *testing.T) {
	const retain = 2
	cases := []struct {
		point   string
		leave   func(st *Store, snap []byte) // the state the death leaves
		wantGen uint64                       // what recovery must find
	}{
		{"save:before-write", func(*Store, []byte) {}, 2},
		{"save:during-write", func(st *Store, snap []byte) { LeaveTemp(t, st.Path(3), snap[:16]) }, 2},
		{"save:before-rename", func(st *Store, snap []byte) { LeaveTemp(t, st.Path(3), snap) }, 2},
		{"save:after-rename", func(st *Store, snap []byte) {
			if err := os.WriteFile(st.Path(3), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			st := newTestStore(t, retain)
			for seq := uint64(1); seq <= 2; seq++ {
				if _, err := st.Save(seq, payloadFor(seq)); err != nil {
					t.Fatal(err)
				}
			}
			var snap bytes.Buffer
			if err := WriteSnapshot(&snap, payloadFor(3)); err != nil {
				t.Fatal(err)
			}
			tc.leave(st, snap.Bytes())

			// "Restart": a fresh store over the same directory sweeps the
			// temps and must recover the newest intact generation.
			st2, err := NewStore(st.Dir(), retain)
			if err != nil {
				t.Fatal(err)
			}
			st2.Retry = fastRetry()
			got, seq, skipped, err := st2.LoadLatest()
			if err != nil {
				t.Fatal(err)
			}
			if seq != tc.wantGen || len(skipped) != 0 {
				t.Fatalf("recovered generation %d skipping %v, want %d skipping none", seq, skipped, tc.wantGen)
			}
			want := payloadFor(tc.wantGen)[0].Payload
			if p, _ := got.Section(SectionTrainer); !bytes.Equal(p, want) {
				t.Fatal("recovered payload mismatch")
			}
			if temps, _ := filepath.Glob(filepath.Join(st.Dir(), "*.tmp-*")); len(temps) != 0 {
				t.Fatalf("stale temps survived restart: %v", temps)
			}
			// The next Save publishes and rotates down to the newest retain
			// generations, the unrotated one included.
			if _, err := st2.Save(4, payloadFor(4)); err != nil {
				t.Fatal(err)
			}
			gens, err := st2.Generations()
			if err != nil {
				t.Fatal(err)
			}
			if len(gens) != retain || gens[0] != tc.wantGen || gens[1] != 4 {
				t.Fatalf("generations after the next Save = %v, want [%d 4]", gens, tc.wantGen)
			}
		})
	}
}

// TestStoreSaveFailureLeavesNothing makes every attempt of a Save fail for
// real, by removing the store's directory: Save must give up after
// Retry.Attempts tries, reporting each failed one but the last to OnRetry,
// and publish nothing.
func TestStoreSaveFailureLeavesNothing(t *testing.T) {
	st := newTestStore(t, 2)
	retries := 0
	st.Retry.OnRetry = func(int, error) { retries++ }
	if err := os.RemoveAll(st.Dir()); err != nil {
		t.Fatal(err)
	}
	path, err := st.Save(1, payloadFor(1))
	if !errors.Is(err, os.ErrNotExist) || path != "" {
		t.Fatalf("Save into a removed directory = %q, %v; want a not-exist error", path, err)
	}
	if retries != st.Retry.Attempts-1 {
		t.Fatalf("OnRetry called %d times, want %d", retries, st.Retry.Attempts-1)
	}
	if _, err := os.Stat(st.Path(1)); !os.IsNotExist(err) {
		t.Fatalf("generation 1 published: %v", err)
	}
	if temps, _ := filepath.Glob(filepath.Join(st.Dir(), "*.tmp-*")); len(temps) != 0 {
		t.Fatalf("temps left: %v", temps)
	}
}

func TestStoreRejectsBadRetain(t *testing.T) {
	if _, err := NewStore(t.TempDir(), 0); err == nil {
		t.Fatal("retain 0 accepted")
	}
}

func TestRetryBacksOffExponentially(t *testing.T) {
	var delays []time.Duration
	p := RetryPolicy{
		Attempts:  4,
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  25 * time.Millisecond,
		Sleep:     func(d time.Duration) { delays = append(delays, d) },
	}
	calls := 0
	err := p.Do(func() error {
		calls++
		if calls < 4 {
			return ErrInjectedFault
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	if len(delays) != len(want) {
		t.Fatalf("delays = %v", delays)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delay %d = %v, want %v", i, delays[i], want[i])
		}
	}
}

func TestRetryGivesUpAfterAttempts(t *testing.T) {
	p := RetryPolicy{Attempts: 3, Sleep: func(time.Duration) {}}
	calls := 0
	retries := 0
	p.OnRetry = func(int, error) { retries++ }
	err := p.Do(func() error { calls++; return ErrInjectedFault })
	if !errors.Is(err, ErrInjectedFault) || calls != 3 || retries != 2 {
		t.Fatalf("err=%v calls=%d retries=%d", err, calls, retries)
	}
}
