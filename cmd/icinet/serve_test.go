package main

import (
	"strings"
	"testing"

	"icistrategy/internal/chain"
	"icistrategy/internal/netx"
	"icistrategy/internal/workload"
)

func TestEventLogFormatsLogfmt(t *testing.T) {
	var b strings.Builder
	l := newEventLog(&b)
	l.Event("serve.ready", "addr", "127.0.0.1:9", "restarted", false)
	l.Event("bootstrap.failed", "err", "dial tcp: connection refused")
	got := b.String()
	want := "event=serve.ready addr=127.0.0.1:9 restarted=false\n" +
		"event=bootstrap.failed err=\"dial tcp: connection refused\"\n"
	if got != want {
		t.Fatalf("logfmt output:\n%q\nwant:\n%q", got, want)
	}
}

func TestMemberStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := loadMemberState(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	in := memberState{Members: []string{"a:1", "b:2", "c:3"}, Replication: 2}
	if err := saveMemberState(dir, in); err != nil {
		t.Fatal(err)
	}
	out, ok, err := loadMemberState(dir)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if out.Replication != in.Replication || len(out.Members) != 3 {
		t.Fatalf("round trip mangled state: %+v", out)
	}
}

func TestResolveResyncMode(t *testing.T) {
	cases := []struct {
		mode      string
		restarted bool
		want      string
		wantErr   bool
	}{
		{"auto", false, "none", false},
		{"auto", true, "restart", false},
		{"join", false, "join", false},
		{"restart", false, "restart", false},
		{"none", true, "none", false},
		{"bogus", false, "", true},
	}
	for _, c := range cases {
		got, err := resolveResyncMode(c.mode, c.restarted)
		if c.wantErr != (err != nil) || got != c.want {
			t.Fatalf("resolveResyncMode(%q, %v) = %q, %v", c.mode, c.restarted, got, err)
		}
	}
}

func TestSplitMembers(t *testing.T) {
	if got := splitMembers(" a:1, b:2 ,,c:3 "); len(got) != 3 || got[1] != "b:2" {
		t.Fatalf("splitMembers: %v", got)
	}
	if got := splitMembers("  "); got != nil {
		t.Fatalf("blank list: %v", got)
	}
}

// serveCluster builds a live 3-member cluster with distributed blocks for
// the selfResync tests, returning the member addresses.
func serveCluster(t *testing.T) ([]*netx.Server, []string, []*chain.Block) {
	t.Helper()
	servers := make([]*netx.Server, 3)
	addrs := make([]string, 3)
	for i := range servers {
		s, err := netx.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		servers[i] = s
		addrs[i] = s.Addr()
	}
	cl, err := netx.NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gen, err := workload.NewGenerator(workload.Config{Accounts: 30, PayloadBytes: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := workload.NewChainBuilder(gen, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*chain.Block
	for i := 0; i < 2; i++ {
		b, err := cb.NextBlock(15)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	return servers, addrs, blocks
}

func TestSelfResyncJoinMode(t *testing.T) {
	_, addrs, _ := serveCluster(t)
	joiner, err := netx.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = joiner.Close() })
	// The joiner's own address may stand anywhere in -members: it joins
	// through the others under a fresh identity.
	members := append([]string{joiner.Addr()}, addrs...)
	n, err := selfResync("join", joiner.Addr(), 2, members)
	if err != nil {
		t.Fatalf("join resync: %v", err)
	}
	if int64(n) != joiner.Stats().ChunkCount {
		t.Fatalf("reported %d chunks, stored %d", n, joiner.Stats().ChunkCount)
	}
	if joiner.Stats().HeaderCount != 2 {
		t.Fatalf("joiner has %d headers, want 2", joiner.Stats().HeaderCount)
	}
	if _, err := selfResync("join", joiner.Addr(), 2, []string{joiner.Addr()}); err == nil {
		t.Fatal("join with no other member accepted")
	}
}

func TestSelfResyncRestartMode(t *testing.T) {
	servers, addrs, _ := serveCluster(t)
	lost := servers[1].Stats().ChunkCount
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	reborn, err := netx.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = reborn.Close() })
	members := append([]string(nil), addrs...)
	members[1] = reborn.Addr()
	n, err := selfResync("restart", reborn.Addr(), 2, members)
	if err != nil {
		t.Fatalf("restart resync: %v", err)
	}
	if int64(n) != lost {
		t.Fatalf("resynced %d chunks, crashed member held %d", n, lost)
	}
	if _, err := selfResync("restart", "127.0.0.1:1", 2, members); err == nil {
		t.Fatal("a non-member address accepted")
	}
	if _, err := selfResync("bogus", reborn.Addr(), 2, members); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := selfResync("restart", reborn.Addr(), 2, nil); err == nil {
		t.Fatal("empty membership accepted")
	}
}
