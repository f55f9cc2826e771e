package contest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeIcinet is a stand-in for the real binary: it honors just enough of
// the -serve contract (readiness line, stderr events, clean SIGTERM exit)
// for fast process-lifecycle tests that skip the network actions.
const fakeIcinet = `#!/bin/sh
addr=""
state=""
while [ $# -gt 0 ]; do
  case "$1" in
    -listen) addr="$2"; shift ;;
    -state) state="$2"; shift ;;
  esac
  shift
done
trap 'echo "event=serve.stop" >&2; exit 0' TERM INT
echo "ICINET READY addr=$addr"
echo "event=serve.ready addr=$addr" >&2
if [ -n "$state" ] && [ -f "$state/fake-marker" ]; then
  echo "event=fake.restarted" >&2
else
  [ -n "$state" ] && : > "$state/fake-marker"
  echo "event=fake.first" >&2
fi
while :; do sleep 0.1; done
`

func writeFakeIcinet(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fake-icinet")
	if err := os.WriteFile(path, []byte(fakeIcinet), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func runWith(t *testing.T, bin, src string) (string, error) {
	t.Helper()
	sc, err := ParseScenario(src, "inline.cont")
	if err != nil {
		t.Fatal(err)
	}
	var sb safeBuilder
	r := &Runner{IcinetPath: bin, Out: &sb, Timeout: 30 * time.Second}
	err = r.Run(sc)
	return sb.String(), err
}

func TestRunnerLifecycleAgainstFakeBinary(t *testing.T) {
	bin := writeFakeIcinet(t)
	out, err := runWith(t, bin, `
scenario lifecycle
replication 1

node n0
node n1

stage up
    start n0 n1
    wait-log n0 event=serve.ready timeout=5s
    assert-log n1 addr=${node.n1.addr}

stage churn
    kill n1
    restart n1
    wait-log n1 event=serve.ready timeout=5s

stage down
    stop n0 n1
`)
	if err != nil {
		t.Fatalf("scenario failed: %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "scenario lifecycle: PASS") {
		t.Fatalf("missing PASS line:\n%s", out)
	}
	if !strings.Contains(out, "run=2") {
		t.Fatalf("restart did not record a second run:\n%s", out)
	}
}

func TestRunnerWaitLogTimeoutFails(t *testing.T) {
	bin := writeFakeIcinet(t)
	out, err := runWith(t, bin, `
scenario waits
node n0
stage s
    start n0
    wait-log n0 event=never-emitted timeout=200ms
`)
	if err == nil {
		t.Fatalf("missing log line accepted:\n%s", out)
	}
	if !strings.Contains(err.Error(), "stage s") || !strings.Contains(err.Error(), "wait-log") {
		t.Fatalf("error lacks stage/action context: %v", err)
	}
}

// Log conditions against a freshly restarted process must NOT be satisfied
// by lines from the previous run: each start attaches a new watcher.
func TestRunnerLogConditionsScopedToCurrentRun(t *testing.T) {
	bin := writeFakeIcinet(t)
	// Positive: the restart-only marker is reachable after restart.
	if out, err := runWith(t, bin, `
scenario runscope
node n0
stage s
    start n0
    wait-log n0 event=fake.first timeout=5s
    kill n0
    restart n0
    wait-log n0 event=fake.restarted timeout=5s
    stop n0
`); err != nil {
		t.Fatalf("restart-scoped wait failed: %v\n%s", err, out)
	}
	// Negative: the first run's marker is gone from the restarted run's
	// stream, so asserting it must fail.
	_, err := runWith(t, bin, `
scenario runscope-neg
node n0
stage s
    start n0
    wait-log n0 event=fake.first timeout=5s
    kill n0
    restart n0
    wait-log n0 event=fake.restarted timeout=5s
    assert-log n0 event=fake.first
`)
	if err == nil || !strings.Contains(err.Error(), "no log line matches") {
		t.Fatalf("previous run's line leaked into the restarted watcher: %v", err)
	}
}

// The server logs before it acknowledges, but its stderr pipe is read
// asynchronously: a line already written can reach the watcher after the
// next action starts. assert-log must allow for that delivery (the
// churn.cont:28 flake) — and still fail, within its bound, for a line that
// never comes.
func TestAssertLogSettlesForLateDelivery(t *testing.T) {
	late := filepath.Join(t.TempDir(), "late-icinet")
	script := strings.Replace(fakeIcinet,
		`echo "event=serve.ready`, `sleep 0.3; echo "event=serve.ready`, 1)
	if script == fakeIcinet {
		t.Fatal("fake binary template changed: no stderr line to delay")
	}
	if err := os.WriteFile(late, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	if out, err := runWith(t, late, `
scenario settle
node n0
stage s
    start n0
    assert-log n0 event=serve.ready
    stop n0
`); err != nil {
		t.Fatalf("assert-log raced a line 300ms behind the readiness ack: %v\n%s", err, out)
	}
	start := time.Now()
	_, err := runWith(t, late, `
scenario settle-neg
node n0
stage s
    start n0
    assert-log n0 event=never.logged
`)
	if err == nil || !strings.Contains(err.Error(), "no log line matches") {
		t.Fatalf("absent line accepted: %v", err)
	}
	if waited := time.Since(start); waited > assertLogSettle+5*time.Second {
		t.Fatalf("assert-log on an absent line took %v, want about %v", waited, assertLogSettle)
	}
}

func TestRunnerRejectsDoubleStartAndStopOfStopped(t *testing.T) {
	bin := writeFakeIcinet(t)
	if _, err := runWith(t, bin, `
scenario dup
node n0
stage s
    start n0
    start n0
`); err == nil || !strings.Contains(err.Error(), "already running") {
		t.Fatalf("double start: %v", err)
	}
	if _, err := runWith(t, bin, `
scenario dead
node n0
stage s
    stop n0
`); err == nil || !strings.Contains(err.Error(), "not running") {
		t.Fatalf("stop of stopped node: %v", err)
	}
}

// A binary that ignores SIGTERM must fail the stop action (and teardown
// must still reap it via SIGKILL — no leaked process hangs the test).
func TestRunnerStopDetectsUncleanExit(t *testing.T) {
	stubborn := filepath.Join(t.TempDir(), "stubborn")
	script := `#!/bin/sh
trap '' TERM
echo "ICINET READY addr=$3"
while :; do sleep 0.1; done
`
	// $3 is the -listen value given the runner's fixed argument order.
	if err := os.WriteFile(stubborn, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := runWith(t, stubborn, `
scenario stubborn
node n0
stage s
    start n0
    stop n0 timeout=300ms
`)
	if err == nil || !strings.Contains(err.Error(), "ignored SIGTERM") {
		t.Fatalf("unclean stop: %v", err)
	}
}

func TestRunnerStartFailureReportsExit(t *testing.T) {
	crash := filepath.Join(t.TempDir(), "crash")
	script := "#!/bin/sh\necho boom >&2\nexit 3\n"
	if err := os.WriteFile(crash, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := runWith(t, crash, `
scenario crashy
node n0
stage s
    start n0
`)
	if err == nil || !strings.Contains(err.Error(), "exited during startup") {
		t.Fatalf("crash at startup: %v", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error lacks the process stderr: %v", err)
	}
}
