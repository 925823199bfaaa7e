package cliutil

import (
	"slices"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]config.MigrationPolicy{
		"disabled": config.PolicyDisabled,
		"baseline": config.PolicyDisabled,
		"Always":   config.PolicyAlways,
		" oversub": config.PolicyOversub,
		"ADAPTIVE": config.PolicyAdaptive,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

func TestParseGranularity(t *testing.T) {
	if g, err := ParseGranularity("2M"); err != nil || g != memunits.ChunkSize {
		t.Errorf("2M: %d, %v", g, err)
	}
	if g, err := ParseGranularity("64kb"); err != nil || g != memunits.BlockSize {
		t.Errorf("64kb: %d, %v", g, err)
	}
	if _, err := ParseGranularity("4k"); err == nil {
		t.Error("accepted unsupported granularity")
	}
}

func TestSplitList(t *testing.T) {
	got := SplitList(" a, b ,,c,")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("SplitList = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitList = %v", got)
		}
	}
	if SplitList("") != nil {
		t.Error("empty input should return nil")
	}
}

func TestParseWorkloads(t *testing.T) {
	got, err := ParseWorkloads(" bfs, ra ,")
	if err != nil || !slices.Equal(got, []string{"bfs", "ra"}) {
		t.Fatalf("ParseWorkloads = %v, %v", got, err)
	}
	if got, err := ParseWorkloads(""); got != nil || err != nil {
		t.Fatalf("empty list = %v, %v; want nil (the caller's default)", got, err)
	}
	if _, err := ParseWorkloads("bfs,nosuch"); err == nil || !strings.Contains(err.Error(), `unknown workload "nosuch"`) {
		t.Fatalf("unknown name: err = %v", err)
	}
}

// Every enum value must survive the round trip through its own String()
// and back through the CLI parser — a renamed enum constant that the
// parsers no longer recognize is a flag-compatibility break. Replacement
// policies and prefetcher kinds are picked by the -evictor and
// -pf-governor stage names.
func TestEnumStringsRoundTrip(t *testing.T) {
	for _, pol := range config.Policies() {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", pol.String(), got, err, pol)
		}
	}
	for _, rp := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
		if _, err := ParseComponentName("evictor", rp.String(), mm.EvictorNames()); err != nil {
			t.Errorf("evictor %q: %v", rp.String(), err)
		}
	}
	for _, pf := range []config.PrefetcherKind{config.PrefetchTree, config.PrefetchNone, config.PrefetchSequential} {
		if _, err := ParseComponentName("prefetch governor", pf.String(), mm.PrefetchGovernorNames()); err != nil {
			t.Errorf("prefetch governor %q: %v", pf.String(), err)
		}
	}
}

func TestParseComponentName(t *testing.T) {
	names := []string{"threshold", "thrash-guard"}
	if got, err := ParseComponentName("planner", "", names); got != "" || err != nil {
		t.Errorf("empty name = %q, %v; want passthrough", got, err)
	}
	if got, err := ParseComponentName("planner", " Thrash-Guard ", names); got != "thrash-guard" || err != nil {
		t.Errorf("case/space fold = %q, %v", got, err)
	}
	if _, err := ParseComponentName("planner", "bogus", names); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestParseComponentList(t *testing.T) {
	names := []string{"bandit-pf", "tree"}
	if got, err := ParseComponentList("prefetch governor", " Tree,,bandit-pf ", names); err != nil || !slices.Equal(got, []string{"tree", "bandit-pf"}) {
		t.Errorf("list = %q, %v; want tree and bandit-pf", got, err)
	}
	if got, err := ParseComponentList("prefetch governor", "", names); got != nil || err != nil {
		t.Errorf("empty list = %q, %v; want nil", got, err)
	}
	if _, err := ParseComponentList("prefetch governor", "tree,oracle", names); err == nil || !strings.Contains(err.Error(), `unknown prefetch governor "oracle"`) {
		t.Errorf("unknown name: err = %v", err)
	}
}
