package contest

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleScenario = `
# sample
scenario sample
replication 2

vars
    blocks 3
    greeting hello world

node n0
node n1 chaos=true
node n2 resync=join

stage seed
    start n0 n1
    distribute via=n0,n1 blocks=${blocks} tx=24 seed=7

stage check
    wait-log n0 event=serve.ready timeout=5s
    assert-stats n0 chunks >= 1
    stop n0 n1
`

func TestParseScenario(t *testing.T) {
	sc, err := ParseScenario(sampleScenario, "sample.cont")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "sample" || sc.Replication != 2 {
		t.Fatalf("header mangled: %+v", sc)
	}
	if sc.Vars["blocks"] != "3" || sc.Vars["greeting"] != "hello world" {
		t.Fatalf("vars mangled: %v", sc.Vars)
	}
	if len(sc.Nodes) != 3 {
		t.Fatalf("want 3 nodes, got %d", len(sc.Nodes))
	}
	for i, nd := range sc.Nodes {
		if nd.ID != i {
			t.Fatalf("node %s has id %d at position %d", nd.Name, nd.ID, i)
		}
	}
	if !sc.Nodes[1].Chaos || sc.Nodes[2].Resync != "join" || sc.Nodes[0].Resync != "auto" {
		t.Fatalf("node options mangled: %+v %+v %+v", sc.Nodes[0], sc.Nodes[1], sc.Nodes[2])
	}
	if len(sc.Stages) != 2 || sc.Stages[0].Name != "seed" || len(sc.Stages[0].Actions) != 2 {
		t.Fatalf("stages mangled: %+v", sc.Stages)
	}
	dist := sc.Stages[0].Actions[1]
	if dist.Verb != "distribute" || dist.Opts["via"] != "n0,n1" || dist.Opts["blocks"] != "${blocks}" {
		t.Fatalf("distribute mangled: %+v", dist)
	}
	// `event=serve.ready` must stay POSITIONAL: wait-log defines no `event`
	// option, so the pattern is not swallowed as a key=value.
	wl := sc.Stages[1].Actions[0]
	if len(wl.Args) != 2 || wl.Args[1] != "event=serve.ready" || wl.Opts["timeout"] != "5s" {
		t.Fatalf("wait-log mangled: %+v", wl)
	}
	cmp := sc.Stages[1].Actions[1]
	if len(cmp.Args) != 4 || cmp.Args[2] != ">=" {
		t.Fatalf("assert-stats mangled: %+v", cmp)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"missing name", "node n0\nstage s\n    start n0\n", "missing scenario"},
		{"no nodes", "scenario x\nstage s\n    sleep 1s\n", "declares no nodes"},
		{"no stages", "scenario x\nnode n0\n", "declares no stages"},
		{"unknown directive", "scenario x\nbogus y\n", `unknown directive "bogus"`},
		{"unknown action", "scenario x\nnode n0\nstage s\n    frobnicate n0\n", `unknown action "frobnicate"`},
		{"unknown node ref", "scenario x\nnode n0\nstage s\n    start n9\n", `unknown node "n9"`},
		{"duplicate node", "scenario x\nnode n0\nnode n0\nstage s\n    start n0\n", "duplicate node"},
		{"duplicate id", "scenario x\nnode a id=0\nnode b id=0\nstage s\n    start a\n", "reuses id 0"},
		{"gap in ids", "scenario x\nnode a id=0\nnode b id=2\nstage s\n    start a\n", "missing 1"},
		{"replication too high", "scenario x\nreplication 3\nnode n0\nstage s\n    start n0\n", "replication 3 exceeds"},
		{"orphan indent", "scenario x\n    stray line\n", "outside a vars or stage block"},
		{"bad resync", "scenario x\nnode n0 resync=sideways\nstage s\n    start n0\n", "bad resync mode"},
		{"arity", "scenario x\nnode n0\nstage s\n    wait-log n0\n", "at least 2"},
		{"missing required opt", "scenario x\nnode n0\nstage s\n    distribute blocks=1\n", "requires the via= option"},
		{"duplicate opt", "scenario x\nnode n0\nstage s\n    start n0 timeout=1s timeout=2s\n", "duplicate option"},
		{"bad gateway value", "scenario x\nnode n0 gateway=perhaps\nstage s\n    start n0\n", "bad gateway value"},
		{"retrieve no source", "scenario x\nnode n0\nstage s\n    assert-retrieve block=0\n", "exactly one of via= or gateway="},
		{"retrieve both sources", "scenario x\nnode n0\nstage s\n    assert-retrieve via=n0 gateway=n0\n", "exactly one of via= or gateway="},
		{"retrieve unknown gateway", "scenario x\nnode n0\nstage s\n    assert-retrieve gateway=n9\n", `unknown node "n9"`},
	}
	for _, c := range cases {
		_, err := ParseScenario(c.src, c.name+".cont")
		if err == nil {
			t.Errorf("%s: parse accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseShippedScenarios(t *testing.T) {
	shipped, err := filepath.Glob("../../scenarios/*.cont")
	if err != nil || len(shipped) == 0 {
		t.Fatalf("no shipped scenarios found: %v", err)
	}
	for _, f := range append(shipped, "testdata/broken.cont") {
		if _, err := ParseScenarioFile(f); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

func TestExpandTemplate(t *testing.T) {
	vars := map[string]string{
		"a":    "1",
		"b":    "${a}${a}",
		"loop": "${loop}",
	}
	lookup := func(name string) (string, bool) {
		v, ok := vars[name]
		return v, ok
	}
	if got, err := expandTemplate("x=${a} y=${b}", lookup); err != nil || got != "x=1 y=11" {
		t.Fatalf("expand: %q, %v", got, err)
	}
	if got, err := expandTemplate("plain", lookup); err != nil || got != "plain" {
		t.Fatalf("no-op expand: %q, %v", got, err)
	}
	if _, err := expandTemplate("${missing}", lookup); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := expandTemplate("${loop}", lookup); err == nil {
		t.Fatal("expansion loop accepted")
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(" a, b ,,c "); len(got) != 3 || got[1] != "b" {
		t.Fatalf("splitList: %v", got)
	}
	if got := splitList(""); got != nil {
		t.Fatalf("empty list: %v", got)
	}
}

func TestCompareInt(t *testing.T) {
	cases := []struct {
		got  int64
		op   string
		want int64
		res  bool
	}{
		{1, "==", 1, true}, {1, "!=", 1, false}, {1, "<", 2, true},
		{2, "<=", 2, true}, {3, ">", 2, true}, {2, ">=", 3, false},
	}
	for _, c := range cases {
		ok, err := compareInt(c.got, c.op, c.want)
		if err != nil || ok != c.res {
			t.Fatalf("compareInt(%d %s %d) = %v, %v", c.got, c.op, c.want, ok, err)
		}
	}
	if _, err := compareInt(1, "~", 1); err == nil {
		t.Fatal("unknown operator accepted")
	}
}
