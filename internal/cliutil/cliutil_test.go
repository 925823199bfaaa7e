package cliutil

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
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

func TestParseReplacement(t *testing.T) {
	if _, ok, err := ParseReplacement(""); ok || err != nil {
		t.Error("empty replacement should mean default pairing")
	}
	got, ok, err := ParseReplacement("LFU")
	if !ok || err != nil || got != config.ReplaceLFU {
		t.Errorf("ParseReplacement(LFU) = %v, %v, %v", got, ok, err)
	}
	if _, _, err := ParseReplacement("mru"); err == nil {
		t.Error("ParseReplacement accepted garbage")
	}
}

func TestParsePrefetcher(t *testing.T) {
	cases := map[string]config.PrefetcherKind{
		"tree": config.PrefetchTree,
		"none": config.PrefetchNone,
		"seq":  config.PrefetchSequential,
	}
	for in, want := range cases {
		got, err := ParsePrefetcher(in)
		if err != nil || got != want {
			t.Errorf("ParsePrefetcher(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePrefetcher("magic"); err == nil {
		t.Error("ParsePrefetcher accepted garbage")
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

// Every enum value must survive the round trip through its own String()
// and back through the CLI parser — a renamed enum constant that the
// parsers no longer recognize is a flag-compatibility break.
func TestEnumStringsRoundTrip(t *testing.T) {
	for _, pol := range config.Policies() {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", pol.String(), got, err, pol)
		}
	}
	for _, rp := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
		got, ok, err := ParseReplacement(rp.String())
		if err != nil || !ok || got != rp {
			t.Errorf("ParseReplacement(%q) = %v, %v, %v; want %v", rp.String(), got, ok, err, rp)
		}
	}
	for _, pf := range []config.PrefetcherKind{config.PrefetchTree, config.PrefetchNone, config.PrefetchSequential} {
		got, err := ParsePrefetcher(pf.String())
		if err != nil || got != pf {
			t.Errorf("ParsePrefetcher(%q) = %v, %v; want %v", pf.String(), got, err, pf)
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
