package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// runTiny runs one workload at the smoke-test sizes and returns its
// result and the lines it printed before the result.
func runTiny(t *testing.T, workload string, seed int64, trace bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{
		workload: workload, seed: seed, seconds: time.Second, trace: trace,
		workdir: t.TempDir(), size: tinySizes, out: &out, log: io.Discard,
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return last, strings.Join(lines[:len(lines)-1], "\n")
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes:
// every named metric must print with its unit, and every operation and
// check must pass.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"fleet", "learned-build"} {
		for _, trace := range []bool{false, true} {
			res, head := runTiny(t, w, 1, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if !strings.Contains(head, `"nproc"`) || !strings.Contains(head, `"go"`) || !strings.Contains(head, `"cpu"`) {
				t.Errorf("%s trace=%v: no host fingerprint in %q", w, trace, head)
			}
		}
	}
}

type determinism struct {
	Policy      string  `json:"policy"`
	Queries     string  `json:"queries"`
	Splits      int     `json:"splits"`
	ChooseCalls int     `json:"choose_calls"`
	QueryNodes  float64 `json:"query_nodes"`
	RNA         float64 `json:"rna"`
}

func learnedDeterminism(t *testing.T, seed int64) determinism {
	t.Helper()
	res, head := runTiny(t, "learned-build", seed, false)
	if !res.Correct {
		t.Fatalf("seed %d: run not correct", seed)
	}
	for _, line := range strings.Split(head, "\n") {
		if rest, ok := strings.CutPrefix(line, "determinism: "); ok {
			var d determinism
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	t.Fatalf("seed %d: no determinism line in %q", seed, head)
	return determinism{}
}

// TestLearnedBuildDeterminism pins that one seed reproduces the trained
// policy, the tree's split and choose counts, query_nodes and rna
// exactly, and that another seed changes the generated query batteries.
func TestLearnedBuildDeterminism(t *testing.T) {
	a := learnedDeterminism(t, 3)
	b := learnedDeterminism(t, 3)
	if a != b {
		t.Errorf("same seed, different outcome:\n%+v\n%+v", a, b)
	}
	c := learnedDeterminism(t, 4)
	if c.Queries == a.Queries {
		t.Errorf("seeds 3 and 4 generated the same queries %s", a.Queries)
	}
	if c.QueryNodes == a.QueryNodes {
		t.Errorf("seeds 3 and 4 measured the same query_nodes %v on different queries", a.QueryNodes)
	}
}
