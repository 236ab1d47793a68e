package main

import (
	"bufio"
	"bytes"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"marlperf/internal/cli"
	"marlperf/internal/cli/clitest"
	"marlperf/internal/expserve"
	"marlperf/internal/expstore"
	"marlperf/internal/mpe"
	"marlperf/internal/resilience"
)

func TestFlagSurface(t *testing.T) { clitest.Surface(t, run) }

func TestUsageErrors(t *testing.T) {
	clitest.UsageErrors(t, run,
		[]string{"-no-such-flag"},
		[]string{"episodes", "5"}, // used to train the default 100 episodes
		[]string{"-env", "typo"},
		[]string{"-algo", "typo"},
		[]string{"-sampler", "typo"},
		[]string{"-resume"},
		[]string{"-replay-addr", "h:1", "-load", "x"},
		[]string{"-replay-addr", "127.0.0.1:1", "-sampler", "per"},
		[]string{"-replay-addr", "127.0.0.1:1", "-sampler", "ip"},
		// A short -replay-retry bounds the run if -kv were accepted.
		[]string{"-replay-addr", "127.0.0.1:1", "-replay-retry", "100ms", "-kv"},
		[]string{"-checkpoint-dir", "d", "-retain", "0"},
		[]string{"-policy-publish-every", "0"},
		[]string{"-trace-out", "t.json"}, // without -trace
		[]string{"-trace", "-trace-sample", "0"},
	)
	// The two messages every binary taking -env/-algo prints (cli.Env, cli.Algo).
	for args, want := range map[string]string{
		"-env typo":  `unknown env "typo" (want pp, cn or pd)`,
		"-algo typo": `unknown algo "typo" (want maddpg or matd3)`,
	} {
		if _, _, stderr := clitest.Exec(t, run, strings.Fields(args)...); strings.TrimSpace(stderr) != want {
			t.Errorf("%s: stderr %q, want %q", args, stderr, want)
		}
	}
}

// TestLiveTelemetry is the black-box telemetry smoke: a learner started
// with -metrics-addr on a free port answers /healthz, serves phase
// histograms and the run-info gauge, and — interrupted the way SIGTERM
// does — finishes its episode, exits 3 and leaves run-log records behind.
func TestLiveTelemetry(t *testing.T) {
	runlog := filepath.Join(t.TempDir(), "run.jsonl")
	p := clitest.Start(t, run, "-env", "pp", "-agents", "3", "-episodes", "100000", "-batch", "64", "-buffer", "5000",
		"-log-every", "1000000", "-metrics-addr", "127.0.0.1:0", "-runlog", runlog)
	base := "http://" + p.Await(t, `metrics: http://(\S+)/metrics`)[1]
	if code, body := clitest.Get(t, base+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		_, body := clitest.Get(t, base+"/metrics")
		if regexp.MustCompile(`(?m)^marl_updates [1-9]`).MatchString(body) {
			for _, series := range []string{"marl_phase_seconds_count", "marl_run_info{"} {
				if !strings.Contains(body, "\n"+series) {
					t.Errorf("/metrics has no %s", series)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no update within a minute; /metrics:\n%s", body)
		}
	}
	if code := p.Stop(t); code != cli.ExitInterrupted {
		t.Fatalf("exit %d after cancel, want 3; stderr:\n%s", code, p.Stderr.String())
	}
	if len(clitest.RunLog(t, runlog)) == 0 {
		t.Error("run log is empty")
	}
}

// TestSaveReplacesCheckpointAtomically: -save over an existing file
// replaces it with a checkpoint that -load restores, and leaves no temp
// file beside it.
func TestSaveReplacesCheckpointAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.ckpt")
	if err := os.WriteFile(path, []byte("previous checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-env", "cn", "-agents", "2", "-batch", "32", "-buffer", "2048", "-log-every", "1000"}
	if code, _, stderr := clitest.Exec(t, run, append(args, "-episodes", "8", "-save", path)...); code != cli.ExitOK {
		t.Fatalf("-save: exit %d; stderr:\n%s", code, stderr)
	}
	if tmps, _ := filepath.Glob(path + ".tmp-*"); len(tmps) > 0 {
		t.Errorf("-save left temp files behind: %v", tmps)
	}
	code, stdout, stderr := clitest.Exec(t, run, append(args, "-episodes", "1", "-load", path)...)
	if code != cli.ExitOK || !strings.Contains(stdout, "restored checkpoint from "+path+" (200 steps") {
		t.Fatalf("-load of the saved file: exit %d; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// -resume restores the newest generation -checkpoint-dir holds and trains
// on from it deterministically: two resumes from copies of one directory
// log the same episode rewards and, after two updates, save byte-identical
// checkpoints.
func TestResumeFromCheckpointDirIsDeterministic(t *testing.T) {
	args := []string{"-env", "cn", "-agents", "2", "-batch", "32", "-buffer", "2048", "-log-every", "1000"}
	dir := filepath.Join(t.TempDir(), "snaps")
	if code, _, stderr := clitest.Exec(t, run, append(args, "-episodes", "4", "-checkpoint-dir", dir, "-checkpoint-every", "2")...); code != cli.ExitOK {
		t.Fatalf("training: exit %d; stderr:\n%s", code, stderr)
	}
	rewardLine := regexp.MustCompile(`episode +\d+  mean reward +\S+`)
	resumed := func(name string) (ckpt []byte, rewards []string) {
		t.Helper()
		copyDir := t.TempDir()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(copyDir, e.Name()), data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		save := filepath.Join(t.TempDir(), name+".ckpt")
		code, stdout, stderr := clitest.Exec(t, run, append(args, "-episodes", "8", "-log-every", "1",
			"-checkpoint-dir", copyDir, "-resume", "-save", save)...)
		if code != cli.ExitOK || !strings.Contains(stdout, "resumed from generation 4 ") {
			t.Fatalf("resume %s: exit %d; stdout:\n%s\nstderr:\n%s", name, code, stdout, stderr)
		}
		if ckpt, err = os.ReadFile(save); err != nil {
			t.Fatal(err)
		}
		return ckpt, rewardLine.FindAllString(stdout, -1)
	}
	ckptA, rewardsA := resumed("a")
	ckptB, rewardsB := resumed("b")
	if len(rewardsA) != 8 || strings.Join(rewardsA, "\n") != strings.Join(rewardsB, "\n") {
		t.Fatalf("two resumes from one generation logged different rewards:\n%q\n%q", rewardsA, rewardsB)
	}
	if !bytes.Equal(ckptA, ckptB) {
		t.Fatal("two resumes from one generation saved different checkpoints")
	}
}

// A learner on an experience service keeps no local buffer, so its
// snapshot generations hold the trainer section alone: no replay section,
// which no run could read back anyway, since -replay-addr refuses -resume
// and -load.
func TestRemoteRunSnapshotHasNoReplaySection(t *testing.T) {
	spec := cli.Spec(mpe.NewCooperativeNavigation(2), 2048)
	srv, err := expserve.NewServer(expserve.ServerConfig{Provider: expstore.NewRing(spec), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	dir := t.TempDir()
	code, _, stderr := clitest.Exec(t, run, "-env", "cn", "-agents", "2", "-episodes", "6", "-batch", "32", "-buffer", "2048",
		"-log-every", "1000", "-replay-addr", hs.URL, "-checkpoint-dir", dir, "-checkpoint-every", "3")
	if code != cli.ExitOK {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	store, err := resilience.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap, seq, _, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Section(resilience.SectionTrainer); !ok {
		t.Errorf("generation %d has no trainer section", seq)
	}
	if payload, ok := snap.Section(resilience.SectionReplay); ok {
		t.Errorf("generation %d of a remote run carries a %d-byte replay section", seq, len(payload))
	}
	if len(snap.Sections) != 1 {
		t.Errorf("generation %d holds %d sections, want the trainer section alone", seq, len(snap.Sections))
	}
}

// daemon is a sibling binary running as a child process. Go cannot import
// another main package, so the loop test runs the learner in-process and
// builds the three binaries around it; each binds port 0 and the address is
// read from its "serving … on http://" line.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	args := []string{"build", "-o", filepath.Join(dir, name)}
	if raceEnabled {
		args = append(args, "-race")
	}
	if out, err := exec.Command("go", append(args, "marlperf/cmd/"+name)...).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return filepath.Join(dir, name)
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		re := regexp.MustCompile(`serving .* on http://(\S+)`)
		for sc.Scan() { // to EOF, so the child never blocks on a full pipe
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case found <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-found:
	case <-time.After(time.Minute):
		t.Fatalf("%s printed no serving line", bin)
	}
	return d
}

// drain sends SIGTERM and wants the clean exit of a drained daemon.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Errorf("%s after SIGTERM: %v", d.cmd.Path, err)
	}
}

func metricValue(t *testing.T, addr, name string) float64 {
	t.Helper()
	_, body := clitest.Get(t, "http://"+addr+"/metrics")
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("%s has no %s", addr, name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestClosedLoop is the actor/learner smoke with the policy edge added:
// replayd and policyd as real processes, an actor feeding the store, and
// the learner — in this process — training off the service and publishing.
// The store must have ingested and served rows, policyd must hold a
// version, and the run log must hold one record per update.
func TestClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three binaries")
	}
	dir := t.TempDir()
	replayd := startDaemon(t, buildBinary(t, dir, "marl-replayd"), "-addr", "127.0.0.1:0", "-dir", filepath.Join(dir, "store"), "-env", "cn", "-agents", "2")
	policyd := startDaemon(t, buildBinary(t, dir, "marl-policyd"), "-addr", "127.0.0.1:0")

	actor := exec.Command(buildBinary(t, dir, "marl-actor"), "-replay-addr", replayd.addr, "-env", "cn", "-agents", "2",
		"-actor-id", "actor-0", "-episodes", "4", "-seed", "7")
	out, err := actor.CombinedOutput()
	if err != nil {
		t.Fatalf("marl-actor: %v\n%s", err, out)
	}
	// The exit line: the prefix chaos_smoke.sh reads the row count from,
	// then the engine profile's three phases.
	doneLine := regexp.MustCompile(`(?m)^done: 4 episodes, 100 transitions published.*; action-selection [\d.]+ms \d+% env-step [\d.]+ms \d+% replay-add [\d.]+ms \d+%$`)
	if !doneLine.Match(out) {
		t.Errorf("no done line with phase totals:\n%s", out)
	}

	runlog := filepath.Join(dir, "run.jsonl")
	code, stdout, stderr := clitest.Exec(t, run, "-env", "cn", "-agents", "2", "-episodes", "12", "-batch", "32", "-sampler", "locality",
		"-replay-addr", replayd.addr, "-policy-publish-addr", policyd.addr, "-runlog", runlog)
	if code != cli.ExitOK {
		t.Fatalf("learner exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "shard fabric: replica_reads=0 degraded_draws=0") {
		t.Errorf("no fabric exit line:\n%s", stdout)
	}
	var updates int
	if m := regexp.MustCompile(`, (\d+) updates, `).FindStringSubmatch(stdout); m != nil {
		updates, _ = strconv.Atoi(m[1])
	}
	if n := len(clitest.RunLog(t, runlog)); updates == 0 || n != updates {
		t.Errorf("run log holds %d records for %d updates", n, updates)
	}
	for _, name := range []string{"marl_exp_ingest_rows_total", "marl_exp_sample_requests_total"} {
		if v := metricValue(t, replayd.addr, name); v <= 0 {
			t.Errorf("%s = %v on the store", name, v)
		}
	}
	if _, body := clitest.Get(t, "http://"+policyd.addr+"/v1/policy/stats"); !regexp.MustCompile(`"version":\s*[1-9]`).MatchString(body) {
		t.Errorf("policyd holds no published version: %s", body)
	}
	replayd.drain(t)
	policyd.drain(t)
	if segs, _ := filepath.Glob(filepath.Join(dir, "store", "*.xpk")); len(segs) == 0 {
		t.Error("no segment file in the store directory after the drain")
	}
}
