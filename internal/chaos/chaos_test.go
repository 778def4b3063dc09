package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{
		Topology: "ring", N: 4, Box: "forks", Seed: 1, Horizon: 5000,
		Delay: DelaySpec{Kind: "fixed", Delay: 4},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"too few diners", func(s *Spec) { s.N = 1 }, "at least 2"},
		{"short horizon", func(s *Spec) { s.Horizon = 50 }, "too short"},
		{"unknown topology", func(s *Spec) { s.Topology = "moebius" }, "unknown topology"},
		{"ring too small", func(s *Spec) { s.N = 2 }, "needs n >= 3"},
		{"unknown box", func(s *Spec) { s.Box = "imaginary" }, "unknown box"},
		{"unknown delay", func(s *Spec) { s.Delay = DelaySpec{Kind: "warp"} }, "unknown delay"},
		{"pair size", func(s *Spec) { s.Topology = "pair"; s.N = 4 }, "requires n=2"},
		{"crash out of range", func(s *Spec) { s.Crashes = []CrashSpec{{P: 9, At: 10}} }, "out of range"},
		{"negative crash proc", func(s *Spec) { s.Crashes = []CrashSpec{{P: -1, At: 10}} }, "out of range"},
		{"negative crash time", func(s *Spec) { s.Crashes = []CrashSpec{{P: 1, At: -5}} }, "negative"},
		{"duplicate crash", func(s *Spec) {
			s.Crashes = []CrashSpec{{P: 1, At: 5}, {P: 1, At: 9}}
		}, "duplicate"},
		{"unknown trigger", func(s *Spec) {
			s.Crashes = []CrashSpec{{P: 1, When: "dreaming"}}
		}, "unknown trigger"},
	}
	for _, tc := range cases {
		s := good
		tc.mutate(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestInvalidSpecSurfacesAsResult(t *testing.T) {
	res := Execute(Spec{Topology: "ring", N: 1, Box: "forks", Horizon: 5000,
		Delay: DelaySpec{Kind: "fixed", Delay: 4}})
	if res.Category != CatPanic || res.First() == "" {
		t.Fatalf("invalid spec: got category %q, violations %v", res.Category, res.Violations)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := Spec{
		Topology: "clique", N: 6, Box: "buggy", Seed: 7, Horizon: 9000,
		Delay:   DelaySpec{Kind: "gst", GST: 800, PreMax: 120, PostMax: 8},
		Crashes: []CrashSpec{{P: 2, When: "eating", Skip: 1}, {P: 4, At: 300}},
	}
	data, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the spec:\n  in:  %+v\n  out: %+v", s, back)
	}
}

func TestPlanCrashesDeterministic(t *testing.T) {
	for _, plan := range []string{"none", "single", "eating", "staggered", "minority"} {
		a := planCrashes(plan, 6, 30000, 3)
		b := planCrashes(plan, 6, 30000, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("plan %q not deterministic: %v vs %v", plan, a, b)
		}
		spec := Spec{Topology: "ring", N: 6, Box: "forks", Seed: 3, Horizon: 30000,
			Delay: DelaySpec{Kind: "fixed", Delay: 4}, Crashes: a}
		if err := spec.Validate(); err != nil {
			t.Errorf("plan %q generated invalid crashes: %v", plan, err)
		}
	}
}

func TestPlanCrashesUnknownShapePoisonsSpec(t *testing.T) {
	crashes := planCrashes("catastrophe", 4, 30000, 1)
	spec := Spec{Topology: "ring", N: 4, Box: "forks", Seed: 1, Horizon: 30000,
		Delay: DelaySpec{Kind: "fixed", Delay: 4}, Crashes: crashes}
	if err := spec.Validate(); err == nil {
		t.Fatal("unknown plan shape should yield an invalid spec, got nil error")
	}
}

func TestCampaignSpecsCrossProduct(t *testing.T) {
	c := DefaultCampaign(0)
	specs := c.Specs()
	want := len(c.Boxes) * len(c.Topologies) * len(c.Sizes) * len(c.Seeds) * len(c.Delays) * len(c.Plans)
	if len(specs) != want {
		t.Fatalf("got %d specs, want %d", len(specs), want)
	}
	if len(specs) < 200 {
		t.Fatalf("default campaign has %d runs; the acceptance bar needs at least 200", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("campaign generated invalid spec %s: %v", s.ID(), err)
		}
	}
}
