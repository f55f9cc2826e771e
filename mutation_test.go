package icistrategy

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A seed re-introduces one bug family that breaks the seeded, byte-identical
// runs behind the experiments, or the code they stand on: edits are old/new
// pairs applied to file, and the named test in pkg must fail with the bug in
// place. race runs that test under the race detector, for a bug only the
// detector can see.
type seed struct {
	name, file string
	edits      []string
	pkg, test  string
	race       bool
}

var seeds = []seed{
	{"wall-clock", "internal/core/node.go", []string{
		"const fetchTimeout = 30 * time.Second\n",
		"const fetchTimeout = 30 * time.Second\n\nvar started = time.Now()\n"},
		".", "TestSimulationCodeReadsNoWallClock", false},
	{"completion-order-signing", "internal/workload/workload.go", []string{ // NextTxs collects signatures in completion order
		"\tpar.Each(n, 0, func(i int) { out[i].Sign(keys[i]) })\n",
		"\tvar signed []*chain.Transaction\n\tpar.Each(n, 0, func(i int) {\n\t\tout[i].Sign(keys[i])\n\t\tsigned = append(signed, out[i])\n\t})\n\tout = signed\n"},
		"./internal/workload", "TestNextTxsIsTheSequentialStream", false},
	{"completion-order-verdict", "internal/core/node.go", []string{ // startVerdict collects a share's chunk errors in completion order
		"\t\t\tadopted[i], errs[i] = AdoptChunk(hdr, c.ID.Index, c.Parts, c.TxStart, c.Data, c.Proofs)\n",
		"\t\t\tchk, err := AdoptChunk(hdr, c.ID.Index, c.Parts, c.TxStart, c.Data, c.Proofs)\n\t\t\tadopted[i] = chk\n\t\t\terrs = append(errs, err)\n"},
		"./internal/core", "TestShareVerdictIsTheInlineCheck", false},
	{"chunk-alias", "internal/storage/store.go", []string{ // PutChunk keeps the caller's buffer
		"\tr.buf = make([]byte, len(c.Data), len(c.Data)+edge.Size())\n\tcopy(r.buf, c.Data)\n",
		"\tr.buf = c.Data\n"},
		"./internal/storage", "TestChunkMutationDoesNotCorruptStore", false},
	{"unchecked-read", "internal/storage/store.go", []string{ // verified serves a chunk without checking its checksum
		"\tif err := recs[i].verify(id); err != nil {\n\t\treturn nil, err\n\t}\n", ""},
		"./internal/storage", "TestCorruptionDetectedOnRead", false},
	{"checksum-conflict", "internal/storage/store.go", []string{ // a re-put compares checksums, not bytes
		"\t\"bytes\"\n", "",
		"\t\tif !bytes.Equal(recs[i].buf[:recs[i].size], c.Data) {\n",
		"\t\tif recs[i].digest != c.Digest {\n"},
		"./internal/storage", "TestEqualChecksumIsNotARepeat", false},
	{"uncapped-lend", "internal/storage/store.go", []string{ // a lent chunk's Data runs on into the Merkle edge behind it
		"Data:    r.buf[:r.size:r.size],",
		"Data:    r.buf[:r.size],"},
		"./internal/storage", "TestLentDataEndsAtThePayload", false},
	{"atomic-mix", "internal/metrics/metrics.go", []string{ // the PR-3 Counter: atomic add, bare read
		"\tv atomic.Int64\n}", "\tv int64\n}",
		"\tc.v.Add(delta)\n", "\tatomic.AddInt64(&c.v, delta)\n",
		"{ c.v.Add(1) }", "{ atomic.AddInt64(&c.v, 1) }",
		"{ return c.v.Load() }", "{ return c.v }"},
		"./internal/metrics", "TestCounterValueWhileBumped", true},
	{"metric-name", "internal/gateway/gateway.go", []string{
		`reg.Counter("ici.gateway.coalesced")`,
		`reg.Counter("gateway-coalesced")`},
		"./internal/gateway", "TestConcurrentGetsCoalesceToOneFetch", false},
	{"unended-span", "internal/netx/client.go", []string{ // Client.roundTrip never ends its span
		"\tsp.SetErr(err)\n\tsp.End()\n",
		"\tsp.SetErr(err)\n"},
		"./internal/netx", "TestClusterTracing", false},
	{"goroutine-leak", "internal/netx/client.go", []string{
		"func (c *Client) Close() error { return c.link.Close() }",
		"func (c *Client) Close() error { go c.link.Close(); return nil }"},
		"./internal/netx", "TestClientAfterClose", false},
	{"epochless-placement", "internal/netx/client.go", []string{ // distributeBlock places without naming an epoch
		"cur.Owners(seed, idx, cl.replication)",
		"core.Owners(seed, cur.Members, idx, cl.replication)"},
		".", "TestPlacementNamesItsEpoch", false},
	{"positional-identity", "internal/netx/bootstrap.go", []string{ // a joiner is numbered by the count of current members
		"cur, id := m.Current(), fresh(m)",
		"cur, id := m.Current(), simnet.NodeID(len(m.Current().Members))"},
		"./internal/netx", "TestBootstrapAfterAMiddleRetireTakesAFreshIdentity", false},
	{"retire-takes-held", "internal/netx/churn.go", []string{ // a retire sends each staying member every chunk it owns, held or not
		"if !slices.Contains(owners, s) {",
		"if len(owners) > 0 {"},
		"./internal/netx", "TestRetirePlanIsThePlacementDelta", false},
	{"no-redial", "internal/netx/client.go", []string{ // Cluster.Call asks once and returns the hang-up
		"for again := true; ; again = false {",
		"for again := false; ; again = false {"},
		"./internal/netx", "TestRetrieveFromARestartedMember", false},
	{"dropped-dispatch", "internal/core/node.go", []string{ // handle loses its chunk-answer arm: every fetched chunk is dropped
		"\tcase chunkRespMsg:\n\t\tn.onChunkResp(msg.From, m)\n", ""},
		"./internal/core", "TestLeaveClusterHandsOffChunks", false},
}

// TestEverySeededBugFailsANamedTest applies each seed on its own to a copy
// of this module and requires its named test to fail there: a test that
// passes with the bug in place guards nothing, and a seed that no longer
// compiles or no longer finds its site proves nothing either.
func TestEverySeededBugFailsANamedTest(t *testing.T) {
	root := copyModule(t)
	for _, s := range seeds {
		t.Run(s.name, func(t *testing.T) {
			path := filepath.Join(root, s.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			text := string(orig)
			for i := 0; i < len(s.edits); i += 2 {
				if n := strings.Count(text, s.edits[i]); n != 1 {
					t.Fatalf("seed site moved: %q occurs %d times in %s, want 1", s.edits[i], n, s.file)
				}
				text = strings.Replace(text, s.edits[i], s.edits[i+1], 1)
			}
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()

			// -trimpath keeps the temporary directory's name out of the
			// build cache's keys, so only what the seed touches recompiles.
			args := []string{"test", "-count=1", "-trimpath", "-run", "^" + s.test + "$"}
			if s.race {
				args = append(args, "-race")
			}
			cmd := exec.Command("go", append(args, s.pkg)...)
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			switch {
			case err == nil:
				t.Errorf("%s passes with the %s seed in %s", s.test, s.name, s.file)
			case !strings.Contains(string(out), "--- FAIL: "+s.test+" "):
				t.Errorf("%s did not fail with the %s seed in %s (a build failure is no catch):\n%s", s.test, s.name, s.file, out)
			}
		})
	}
}

// copyModule copies the module's Go files, testdata and go.mod into a
// temporary directory and returns its root. bench/ is a module of its own;
// results/ and hidden directories hold no code.
func copyModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "bench" || path == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		inTestdata := strings.Contains(filepath.ToSlash(path), "testdata/")
		if path != "go.mod" && !strings.HasSuffix(path, ".go") && !inTestdata {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return root
}
