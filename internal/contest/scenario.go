// Package contest is a declarative integration harness for the ICIStrategy
// storage network: a scenario file describes a cluster of real icinet -serve
// processes and a staged script of actions against them — starts, crashes,
// restarts, fault injection, log conditions, and storage assertions — and
// the Runner executes it end-to-end over real TCP, tearing every process
// down deterministically when the scenario ends (pass or fail).
//
// The scenario grammar is a small indented key/value format (no external
// parser dependencies), one directive per line:
//
//	# comment (full-line only)
//	scenario NAME
//	replication R
//	vars
//	    key value with spaces allowed
//	node NAME [resync=auto|join|restart|none] [chaos=true] [gateway=true] [id=N]
//	stage NAME
//	    action args... key=value...
//
// Top-level directives start in column zero; indented lines belong to the
// most recent vars or stage block. Values may reference `${var}` (from the
// vars block) and the runtime builtins `${node.NAME.addr}`,
// `${node.NAME.id}`, `${node.NAME.state}`, `${node.NAME.gateway}` (for
// gateway=true nodes), `${scenario.name}` and `${scenario.dir}`.
//
// Action vocabulary (see actions.go for execution semantics):
//
//	start NODE...            [timeout=10s]   launch, block on readiness line
//	restart NODE...          [timeout=10s]   start again (state dir intact)
//	stop NODE...             [timeout=10s]   SIGTERM, require clean exit 0
//	kill NODE...                             SIGKILL, no cleanup
//	wait-log NODE REGEX      [timeout=10s]   block until stderr line matches
//	assert-log NODE REGEX                    line must already have been logged
//	                                         (allows ≤2s for pipe delivery)
//	sleep DURATION
//	distribute               via=n0,n1 [blocks=2] [tx=20] [seed=42]
//	bootstrap-member         node=NX via=n0,n1 [min=1]
//	retire-member            node=NX via=<membership incl NX> [min=1]
//	                         graceful leave: the members that stay pull
//	                         its chunks, shrunk epoch published; NX may
//	                         be down
//	rejoin-member            node=NX via=<membership incl NX> [min=1]
//	                         return as the same identity: owed chunks are
//	                         re-provisioned per write epoch, map republished
//	inject-fault NODE        kind=corrupt-stored|drop|delay|corrupt-wire|clear
//	                         [rate=1] [delay=20ms] [seed=1] [min=1]
//	assert-stats NODE FIELD OP VALUE         fields: headers, chunks,
//	                                         header-bytes, chunk-bytes
//	assert-retrieve          block=N via=<write members, stopped ones too> | gateway=NODE [expect=ok|fail]
//	assert-down NODE...
//	assert-up NODE...
//
// A via= list is the genesis membership, in placement-id order, until a
// membership change is published; after that it is any members to reach,
// in any order, and the published cluster map says who is who.
package contest

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Scenario is a parsed scenario file.
type Scenario struct {
	Name        string
	File        string // source path, for error positions
	Replication int
	Vars        map[string]string
	Nodes       []*NodeDef // sorted by ID
	Stages      []*Stage
}

// NodeDef declares one cluster member process.
type NodeDef struct {
	Name    string
	ID      int    // placement id; defaults to definition order
	Resync  string // icinet -resync mode; defaults to "auto"
	Chaos   bool   // start with -chaos (honor fault-injection ops)
	Gateway bool   // also serve the read gateway (-gateway) on a second port
	Line    int
}

// Stage is a named sequence of actions; stages run strictly in order.
type Stage struct {
	Name    string
	Line    int
	Actions []*Action
}

// Action is one scripted step: a verb, positional args, and key=value
// options. Which tokens count as options is per-verb (see actionSpecs), so
// patterns like `event=bootstrap.done` stay positional where the verb does
// not define an `event` option.
type Action struct {
	Verb string
	Args []string
	Opts map[string]string
	Line int
}

// actionSpec constrains one verb: positional arity and the option keys it
// accepts (required ones listed separately).
type actionSpec struct {
	minArgs, maxArgs int // maxArgs < 0: unbounded
	opts             []string
	required         []string
}

var actionSpecs = map[string]actionSpec{
	"start":            {minArgs: 1, maxArgs: -1, opts: []string{"timeout"}},
	"restart":          {minArgs: 1, maxArgs: -1, opts: []string{"timeout"}},
	"stop":             {minArgs: 1, maxArgs: -1, opts: []string{"timeout"}},
	"kill":             {minArgs: 1, maxArgs: -1},
	"wait-log":         {minArgs: 2, maxArgs: 2, opts: []string{"timeout"}},
	"assert-log":       {minArgs: 2, maxArgs: 2},
	"sleep":            {minArgs: 1, maxArgs: 1},
	"distribute":       {opts: []string{"via", "blocks", "tx", "seed"}, required: []string{"via"}},
	"bootstrap-member": {opts: []string{"node", "via", "min"}, required: []string{"node", "via"}},
	"retire-member":    {opts: []string{"node", "via", "min"}, required: []string{"node", "via"}},
	"rejoin-member":    {opts: []string{"node", "via", "min"}, required: []string{"node", "via"}},
	"inject-fault":     {minArgs: 1, maxArgs: 1, opts: []string{"kind", "rate", "delay", "seed", "min"}, required: []string{"kind"}},
	"assert-stats":     {minArgs: 4, maxArgs: 4},
	"assert-retrieve":  {opts: []string{"block", "via", "expect", "gateway"}},
	"assert-down":      {minArgs: 1, maxArgs: -1},
	"assert-up":        {minArgs: 1, maxArgs: -1},
}

// hasOpt reports whether the spec accepts key as an option.
func (s actionSpec) hasOpt(key string) bool {
	for _, o := range s.opts {
		if o == key {
			return true
		}
	}
	return false
}

var nodeNameRe = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_-]*$`)

// ParseScenarioFile reads and parses one scenario file.
func ParseScenarioFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseScenario(string(data), path)
}

// ParseScenario parses scenario source; file names the source in errors.
func ParseScenario(src, file string) (*Scenario, error) {
	sc := &Scenario{File: file, Vars: make(map[string]string)}
	fail := func(line int, format string, args ...any) error {
		return fmt.Errorf("%s:%d: %s", file, line, fmt.Sprintf(format, args...))
	}
	block := "" // "", "vars" or "stage"
	var stage *Stage
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		fields := strings.Fields(trimmed)
		if raw[0] != ' ' && raw[0] != '\t' {
			block, stage = "", nil
			switch fields[0] {
			case "scenario":
				if len(fields) != 2 {
					return nil, fail(line, "scenario takes exactly one name")
				}
				if sc.Name != "" {
					return nil, fail(line, "duplicate scenario directive")
				}
				sc.Name = fields[1]
			case "replication":
				if len(fields) != 2 {
					return nil, fail(line, "replication takes exactly one value")
				}
				r, err := strconv.Atoi(fields[1])
				if err != nil || r < 1 {
					return nil, fail(line, "bad replication %q", fields[1])
				}
				sc.Replication = r
			case "vars":
				if len(fields) != 1 {
					return nil, fail(line, "vars takes no arguments")
				}
				block = "vars"
			case "node":
				nd, err := parseNode(fields[1:], line)
				if err != nil {
					return nil, fail(line, "%v", err)
				}
				sc.Nodes = append(sc.Nodes, nd)
			case "stage":
				if len(fields) != 2 {
					return nil, fail(line, "stage takes exactly one name")
				}
				stage = &Stage{Name: fields[1], Line: line}
				sc.Stages = append(sc.Stages, stage)
				block = "stage"
			default:
				return nil, fail(line, "unknown directive %q", fields[0])
			}
			continue
		}
		switch block {
		case "vars":
			key := fields[0]
			if _, dup := sc.Vars[key]; dup {
				return nil, fail(line, "duplicate var %q", key)
			}
			sc.Vars[key] = strings.TrimSpace(strings.TrimPrefix(trimmed, key))
		case "stage":
			act, err := parseAction(fields, line)
			if err != nil {
				return nil, fail(line, "%v", err)
			}
			stage.Actions = append(stage.Actions, act)
		default:
			return nil, fail(line, "indented line outside a vars or stage block")
		}
	}
	if err := validateScenario(sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// parseNode parses the tokens after the `node` keyword.
func parseNode(fields []string, line int) (*NodeDef, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("node needs a name")
	}
	nd := &NodeDef{Name: fields[0], ID: -1, Resync: "auto", Line: line}
	if !nodeNameRe.MatchString(nd.Name) {
		return nil, fmt.Errorf("bad node name %q", nd.Name)
	}
	for _, tok := range fields[1:] {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("node option %q is not key=value", tok)
		}
		switch key {
		case "id":
			id, err := strconv.Atoi(val)
			if err != nil || id < 0 {
				return nil, fmt.Errorf("bad node id %q", val)
			}
			nd.ID = id
		case "resync":
			switch val {
			case "auto", "join", "restart", "none":
				nd.Resync = val
			default:
				return nil, fmt.Errorf("bad resync mode %q", val)
			}
		case "chaos":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return nil, fmt.Errorf("bad chaos value %q", val)
			}
			nd.Chaos = b
		case "gateway":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return nil, fmt.Errorf("bad gateway value %q", val)
			}
			nd.Gateway = b
		default:
			return nil, fmt.Errorf("unknown node option %q", key)
		}
	}
	return nd, nil
}

// parseAction splits one stage line into verb, positional args and options.
func parseAction(fields []string, line int) (*Action, error) {
	verb := fields[0]
	spec, ok := actionSpecs[verb]
	if !ok {
		return nil, fmt.Errorf("unknown action %q", verb)
	}
	act := &Action{Verb: verb, Opts: make(map[string]string), Line: line}
	for _, tok := range fields[1:] {
		if key, val, isKV := strings.Cut(tok, "="); isKV && spec.hasOpt(key) {
			if _, dup := act.Opts[key]; dup {
				return nil, fmt.Errorf("%s: duplicate option %q", verb, key)
			}
			act.Opts[key] = val
			continue
		}
		act.Args = append(act.Args, tok)
	}
	if len(act.Args) < spec.minArgs {
		return nil, fmt.Errorf("%s needs at least %d argument(s), got %d", verb, spec.minArgs, len(act.Args))
	}
	if spec.maxArgs >= 0 && len(act.Args) > spec.maxArgs {
		return nil, fmt.Errorf("%s takes at most %d argument(s), got %d", verb, spec.maxArgs, len(act.Args))
	}
	for _, req := range spec.required {
		if _, ok := act.Opts[req]; !ok {
			return nil, fmt.Errorf("%s requires the %s= option", verb, req)
		}
	}
	if verb == "assert-retrieve" {
		_, viaOK := act.Opts["via"]
		_, gwOK := act.Opts["gateway"]
		if viaOK == gwOK {
			return nil, fmt.Errorf("assert-retrieve requires exactly one of via= or gateway=")
		}
	}
	return act, nil
}

// validateScenario checks cross-cutting invariants: naming, id assignment,
// replication bounds, and that literal node references resolve.
func validateScenario(sc *Scenario) error {
	if sc.Name == "" {
		return fmt.Errorf("%s: missing scenario directive", sc.File)
	}
	if len(sc.Nodes) == 0 {
		return fmt.Errorf("%s: scenario %s declares no nodes", sc.File, sc.Name)
	}
	if len(sc.Stages) == 0 {
		return fmt.Errorf("%s: scenario %s declares no stages", sc.File, sc.Name)
	}
	if sc.Replication > len(sc.Nodes) {
		return fmt.Errorf("%s: replication %d exceeds node count %d", sc.File, sc.Replication, len(sc.Nodes))
	}
	if sc.Replication == 0 { // default: 2, clamped to the cluster size
		sc.Replication = 2
		if sc.Replication > len(sc.Nodes) {
			sc.Replication = len(sc.Nodes)
		}
	}
	names := make(map[string]bool, len(sc.Nodes))
	used := make(map[int]bool, len(sc.Nodes))
	next := 0
	for _, nd := range sc.Nodes {
		if names[nd.Name] {
			return fmt.Errorf("%s:%d: duplicate node %q", sc.File, nd.Line, nd.Name)
		}
		names[nd.Name] = true
		if nd.ID < 0 { // default: definition order, skipping explicit ids
			for used[next] {
				next++
			}
			nd.ID = next
		}
		if used[nd.ID] {
			return fmt.Errorf("%s:%d: node %q reuses id %d", sc.File, nd.Line, nd.Name, nd.ID)
		}
		used[nd.ID] = true
	}
	for id := range sc.Nodes {
		if !used[id] {
			return fmt.Errorf("%s: node ids must cover 0..%d, missing %d", sc.File, len(sc.Nodes)-1, id)
		}
	}
	sort.Slice(sc.Nodes, func(i, j int) bool { return sc.Nodes[i].ID < sc.Nodes[j].ID })
	for _, st := range sc.Stages {
		for _, a := range st.Actions {
			for _, ref := range a.nodeRefs() {
				if strings.Contains(ref, "${") {
					continue // resolved (and checked) at runtime
				}
				if !names[ref] {
					return fmt.Errorf("%s:%d: %s references unknown node %q", sc.File, a.Line, a.Verb, ref)
				}
			}
		}
	}
	return nil
}

// nodeRefs lists the node names an action mentions, for static validation.
func (a *Action) nodeRefs() []string {
	var refs []string
	switch a.Verb {
	case "start", "restart", "stop", "kill", "assert-down", "assert-up":
		refs = append(refs, a.Args...)
	case "wait-log", "assert-log", "inject-fault", "assert-stats":
		refs = append(refs, a.Args[0])
	}
	if v, ok := a.Opts["node"]; ok {
		refs = append(refs, v)
	}
	if v, ok := a.Opts["gateway"]; ok && !strings.Contains(v, "${") {
		refs = append(refs, v)
	}
	if v, ok := a.Opts["via"]; ok && !strings.Contains(v, "${") {
		for _, nm := range splitList(v) {
			refs = append(refs, nm)
		}
	}
	return refs
}

// splitList splits a comma-separated list, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

var varRe = regexp.MustCompile(`\$\{([^}]*)\}`)

// maxExpandDepth bounds recursive `${var}` expansion (vars referencing vars).
const maxExpandDepth = 10

// expandTemplate substitutes every `${name}` in s using lookup; lookup
// results are themselves expanded, so vars can reference other vars.
func expandTemplate(s string, lookup func(string) (string, bool)) (string, error) {
	return expandDepth(s, lookup, 0)
}

func expandDepth(s string, lookup func(string) (string, bool), depth int) (string, error) {
	if depth > maxExpandDepth {
		return "", fmt.Errorf("template expansion loop in %q", s)
	}
	var firstErr error
	out := varRe.ReplaceAllStringFunc(s, func(m string) string {
		name := strings.TrimSpace(m[2 : len(m)-1])
		val, ok := lookup(name)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("unknown template variable %q", name)
			}
			return m
		}
		expanded, err := expandDepth(val, lookup, depth+1)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return expanded
	})
	return out, firstErr
}
