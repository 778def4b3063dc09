package chaos

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the campaign goldens under testdata/")

// TestCampaignGolden pins trace identity across commits: one line per spec
// of the default campaign — ID, trace hash, end time, record count, category
// — compared against a committed file. The determinism tests elsewhere only
// compare a binary with itself, so a kernel change that reorders events the
// same way every run would pass them all; this one fails. Regenerate with
// `go test ./internal/chaos -run 'Campaign.*Golden' -update` only when a
// change is meant to alter schedules.
func TestCampaignGolden(t *testing.T) {
	checkGolden(t, "testdata/campaign.golden", DefaultCampaign(15000))
}

// TestLinkCampaignGolden is the same pin for the lossy campaign: the
// transport's envelopes, the link adversary's drops and duplicates (the
// kernel's evDeliver events) and the transport's hand-off of each fresh
// envelope to its protocol handler — paths the default campaign never takes.
func TestLinkCampaignGolden(t *testing.T) {
	checkGolden(t, "testdata/link_campaign.golden", DefaultLinkCampaign(15000))
}

func checkGolden(t *testing.T, path string, c Campaign) {
	if testing.Short() {
		t.Skip("240-run campaign in -short mode")
	}
	c.Seeds = []int64{1, 2} // pinned here, so a new default cannot silently re-key the file
	var b strings.Builder
	c.Progress = func(r *Result) {
		cat, records := "ok", 0
		if r.Failed() {
			cat = r.Category // Run has stripped a failing result's log
		} else {
			records = r.Log.Len()
		}
		fmt.Fprintf(&b, "%s %016x %d %d %s\n", r.Spec.ID(), r.TraceHash, r.End, records, cat)
	}
	c.Run()
	got := b.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(gl), len(wl))
	}
	diffs := 0
	for i := range gl {
		if gl[i] != wl[i] {
			if diffs++; diffs <= 5 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
	}
	t.Fatalf("%d of %d specs differ from %s", diffs, len(wl)-1, path)
}
