package resilience

// Real-signal crash test: a child process (this test binary re-executed with
// saveLoopArg) saves generation after generation into one store, printing
// each sequence number once its Save has returned, until the parent
// SIGKILLs it wherever it happens to be. The parent then restarts the store
// over the same directory and proves what the store promises: the newest
// intact generation is at least the last acknowledged one, no temp file is
// left, and the store takes the next Save.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
)

const (
	// saveLoopArg, as the test binary's first argument, runs saveLoop on the
	// directory that follows it instead of the tests.
	saveLoopArg   = "resilience-save-loop"
	saveLoopKeep  = 3
	saveLoopAcked = 20 // acknowledged saves before the kill
)

func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == saveLoopArg {
		saveLoop(os.Args[2])
		return
	}
	os.Exit(m.Run())
}

// loopPayload is generation seq's trainer section: large enough that a kill
// often lands mid-write, and different for every generation.
func loopPayload(seq uint64) []Section {
	return []Section{{Kind: SectionTrainer, Payload: bytes.Repeat([]byte(strconv.FormatUint(seq, 10)+";"), 32<<10)}}
}

// saveLoop saves generations 1, 2, … into dir forever, acknowledging each on
// stdout after Save returns.
func saveLoop(dir string) {
	st, err := NewStore(dir, saveLoopKeep)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for seq := uint64(1); ; seq++ {
		if _, err := st.Save(seq, loopPayload(seq)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(seq)
	}
}

func TestSIGKILLDuringSaveLoopRecoversAckedGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec kill test skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], saveLoopArg, dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Kill once the child has acknowledged saveLoopAcked saves, then read
	// every acknowledgement it wrote before it died.
	var acked uint64
	lines := bufio.NewScanner(out)
	for lines.Scan() {
		seq, err := strconv.ParseUint(lines.Text(), 10, 64)
		if err != nil {
			t.Fatalf("child wrote %q", lines.Text())
		}
		acked = seq
		if acked == saveLoopAcked {
			if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
		}
	}
	cmd.Wait() // reap; the exit status is the kill signal
	if acked < saveLoopAcked {
		t.Fatalf("child acknowledged %d saves before exiting, want ≥%d", acked, saveLoopAcked)
	}

	// "Restart": a new store over the same directory.
	left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	st, err := NewStore(dir, saveLoopKeep)
	if err != nil {
		t.Fatalf("restart after SIGKILL failed: %v", err)
	}
	st.Retry = fastRetry()
	if temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(temps) != 0 {
		t.Fatalf("temps survived the restart: %v", temps)
	}
	snap, seq, skipped, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if seq < acked || len(skipped) != 0 {
		t.Fatalf("recovered generation %d skipping %v, but %d was acknowledged", seq, skipped, acked)
	}
	if got, _ := snap.Section(SectionTrainer); !bytes.Equal(got, loopPayload(seq)[0].Payload) {
		t.Fatalf("generation %d holds another generation's payload", seq)
	}
	t.Logf("SIGKILL after %d acknowledged saves left %d temp files; recovered generation %d", acked, len(left), seq)

	if _, err := st.Save(seq+1, loopPayload(seq+1)); err != nil {
		t.Fatal(err)
	}
	if _, next, _, err := st.LoadLatest(); err != nil || next != seq+1 {
		t.Fatalf("after the next Save LoadLatest = %d, %v; want %d", next, err, seq+1)
	}
}
