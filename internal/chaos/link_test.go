package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSpecValidateRejectsBadLinks: link-fault validation flows through
// Spec.Validate via the sim plan's own rules.
func TestSpecValidateRejectsBadLinks(t *testing.T) {
	good := Spec{
		Topology: "ring", N: 4, Box: "forks", Seed: 1, Horizon: 5000,
		Delay: DelaySpec{Kind: "fixed", Delay: 4},
		Links: &LinkSpec{Drop: 0.2, Dup: 0.1, Reorder: 8,
			Windows: []WindowSpec{{Start: 100, End: 400, Drop: 1}}},
		Transport: true,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid lossy spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*LinkSpec)
	}{
		{"certain steady drop", func(l *LinkSpec) { l.Drop = 1 }},
		{"negative drop", func(l *LinkSpec) { l.Drop = -0.2 }},
		{"dup above one", func(l *LinkSpec) { l.Dup = 1.5 }},
		{"negative reorder", func(l *LinkSpec) { l.Reorder = -4 }},
		{"inverted window", func(l *LinkSpec) { l.Windows[0].End = 50 }},
		{"window side out of range", func(l *LinkSpec) { l.Windows[0].Side = []sim.ProcID{9} }},
	}
	for _, tc := range cases {
		s := good
		l := *good.Links
		l.Windows = append([]WindowSpec{}, good.Links.Windows...)
		tc.mutate(&l)
		s.Links = &l
		if err := s.Validate(); err == nil {
			t.Errorf("%s: spec accepted", tc.name)
		}
	}
}

// TestLinkSpecJSONRoundTrip: lossy specs survive the repro-artifact format.
func TestLinkSpecJSONRoundTrip(t *testing.T) {
	s := Spec{
		Topology: "star", N: 4, Box: "token", Seed: 9, Horizon: 12000,
		Delay: DelaySpec{Kind: "gst", GST: 800, PreMax: 120, PostMax: 8},
		Links: &LinkSpec{Drop: 0.3, Dup: 0.1, Reorder: 16,
			Windows: []WindowSpec{{Start: 1000, End: 2000, Drop: 1, Side: []sim.ProcID{0}}}},
		Transport: true,
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
	if !strings.Contains(s.ID(), "loss0.30") || !strings.Contains(s.ID(), "/rt") {
		t.Fatalf("spec ID %q does not describe its link faults and transport", s.ID())
	}
}

// TestNamedLinkSpecs: every canonical shape resolves and validates; unknown
// names error.
func TestNamedLinkSpecs(t *testing.T) {
	for name := range LinkShapes(30000) {
		ls, err := NamedLinkSpec(name, 30000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := Spec{Topology: "ring", N: 4, Box: "forks", Seed: 1, Horizon: 30000,
			Delay: DelaySpec{Kind: "fixed", Delay: 4}, Links: ls}
		if err := s.Validate(); err != nil {
			t.Errorf("shape %s yields invalid spec: %v", name, err)
		}
	}
	if _, err := NamedLinkSpec("hurricane", 30000); err == nil {
		t.Fatal("unknown link shape accepted")
	}
}

// TestLinkCampaignSpecsCrossProduct: the link dimension multiplies into the
// sweep, and the default lossy campaign is exactly the 240-run acceptance
// matrix with the transport on everywhere.
func TestLinkCampaignSpecsCrossProduct(t *testing.T) {
	c := DefaultLinkCampaign(0)
	specs := c.Specs()
	want := len(c.Boxes) * len(c.Topologies) * len(c.Sizes) * len(c.Seeds) *
		len(c.Delays) * len(c.Plans) * len(c.Links)
	if len(specs) != want {
		t.Fatalf("got %d specs, want %d", len(specs), want)
	}
	if len(specs) != 240 {
		t.Fatalf("default link campaign has %d runs, acceptance matrix is 240", len(specs))
	}
	maxDrop := 0.0
	var anyDup, anyReorder, anyWindow bool
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("campaign generated invalid spec %s: %v", s.ID(), err)
		}
		if !s.Transport {
			t.Fatalf("spec %s runs without the transport", s.ID())
		}
		if s.Links == nil {
			t.Fatalf("spec %s has no link faults in the lossy campaign", s.ID())
		}
		if s.Links.Drop > maxDrop {
			maxDrop = s.Links.Drop
		}
		anyDup = anyDup || s.Links.Dup > 0
		anyReorder = anyReorder || s.Links.Reorder > 0
		anyWindow = anyWindow || len(s.Links.Windows) > 0
	}
	if maxDrop < 0.3 {
		t.Errorf("campaign max loss %.2f, acceptance sweeps up to 30%%", maxDrop)
	}
	if !anyDup || !anyReorder || !anyWindow {
		t.Errorf("campaign misses a fault mode: dup=%v reorder=%v window=%v",
			anyDup, anyReorder, anyWindow)
	}
}

// TestExecuteDeterministicUnderLinks pins the determinism contract in the
// lossy world: identical specs — including a nontrivial LinkPlan and the
// transport — yield bit-identical trace hashes, so lossy counterexamples are
// exactly as replayable as reliable-channel ones.
func TestExecuteDeterministicUnderLinks(t *testing.T) {
	for _, box := range []string{"forks", "token"} {
		spec := Spec{
			Topology: "ring", N: 4, Box: box, Seed: 17, Horizon: 8000,
			Delay:   DelaySpec{Kind: "gst", GST: 400, PreMax: 90, PostMax: 8},
			Crashes: []CrashSpec{{P: 2, At: 1200}},
			Links: &LinkSpec{Drop: 0.2, Dup: 0.1, Reorder: 10,
				Windows: []WindowSpec{{Start: 1000, End: 1800, Drop: 1}}},
			Transport: true,
		}
		first := Execute(spec)
		if first.Log == nil || first.Log.Len() == 0 {
			t.Fatalf("%s: empty trace", box)
		}
		again := Execute(spec)
		if again.TraceHash != first.TraceHash {
			t.Errorf("%s: lossy trace hash diverged: %x != %x", box, again.TraceHash, first.TraceHash)
		}
		if again.End != first.End || again.Category != first.Category {
			t.Errorf("%s: lossy run diverged: end %d/%d, category %q/%q",
				box, again.End, first.End, again.Category, first.Category)
		}
	}
}

// TestLinkCampaignCompliantBoxesClean is the lossy acceptance run: all four
// real boxes over the transport survive the 240-run link-fault campaign —
// loss to 30%, duplication, reordering, and a transient total partition —
// with no property violation. This is the end-to-end witness that the
// transport restores the channel axioms the boxes were verified under.
func TestLinkCampaignCompliantBoxesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("240 lossy runs; skipped in -short")
	}
	rep := DefaultLinkCampaign(0).Run()
	if rep.Runs != 240 {
		t.Fatalf("campaign ran %d specs, acceptance matrix is 240", rep.Runs)
	}
	if !rep.CompliantClean() {
		t.Fatalf("compliant boxes violated properties under link faults:\n%s", rep.Render())
	}
	for _, box := range []string{"forks", "token", "perfect", "trap"} {
		st := rep.ByBox[box]
		if st == nil || st.Runs != 60 {
			t.Errorf("box %s ran %v specs, want 60", box, st)
		}
	}
}

// TestNoMessageEscapesTransport: the box and its oracle are wired on the
// transport, so over lossy links the adversary only ever perturbs the
// transport's envelopes, and every link record names the transport's port
// namespace. A module wired on the raw kernel instead would send past the
// transport, and its own port prefix would show up here.
func TestNoMessageEscapesTransport(t *testing.T) {
	perturbed := 0
	seen := make(map[string]bool)
	for _, spec := range DefaultLinkCampaign(15000).Specs() {
		if seen[spec.Box] || !spec.Transport {
			continue
		}
		seen[spec.Box] = true
		for _, r := range Execute(spec).Log.Records {
			if r.Kind != sim.KindLink {
				continue
			}
			perturbed++
			if r.Inst != "rt" {
				t.Fatalf("%s: the link adversary touched a %q message outside the transport: %+v", spec.ID(), r.Inst, r)
			}
		}
	}
	if len(seen) < 4 || perturbed == 0 {
		t.Fatalf("ran %d boxes with %d link records; want all four boxes perturbed", len(seen), perturbed)
	}
}

// TestShrinkDropsIrrelevantLinkFaults: when a failure does not need the link
// adversary, the shrinker removes it (and then the transport), so the repro
// tells the truth about what triggers the bug.
func TestShrinkDropsIrrelevantLinkFaults(t *testing.T) {
	// The planted-bug box starves on a crash alone; mild link faults are noise.
	spec := Spec{
		Topology: "ring", N: 4, Box: "buggy", Seed: 2, Horizon: 30000,
		Delay:     DelaySpec{Kind: "gst", GST: 800, PreMax: 120, PostMax: 8},
		Crashes:   []CrashSpec{{P: 1, When: "eating"}},
		Links:     &LinkSpec{Drop: 0.05},
		Transport: true,
	}
	base := Execute(spec)
	if !base.Failed() {
		t.Skipf("seed does not trigger the planted bug under links (category %q)", base.Category)
	}
	r, err := Shrink(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Links != nil {
		t.Errorf("repro %s kept link faults the failure does not need", r.Spec.ID())
	}
	if r.Spec.Links == nil && r.Spec.Transport {
		t.Errorf("repro %s kept the transport with no link faults under it", r.Spec.ID())
	}
	if _, err := r.Replay(); err != nil {
		t.Errorf("repro does not replay: %v", err)
	}
}
