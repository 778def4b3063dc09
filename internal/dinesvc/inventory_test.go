package dinesvc

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateInventory = flag.Bool("update-inventory", false, "rewrite testdata/inventory.golden")

// inventory boots a service (no listener, no traffic) and lists every series
// it registered as sorted "name kind help" lines, read back from the
// Prometheus exposition — the surface dashboards and bench/ key on.
func inventory(t *testing.T, tables int) []string {
	t.Helper()
	svc, err := New(Config{N: 8, Tables: tables, Extract: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(0)
	var buf bytes.Buffer
	if err := svc.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	var help, kind string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help = strings.SplitN(line, " ", 4)[3]
		case strings.HasPrefix(line, "# TYPE "):
			kind = strings.SplitN(line, " ", 4)[3]
		default:
			name := line[:strings.LastIndexByte(line, ' ')]
			out = append(out, fmt.Sprintf("%s %s %s", name, kind, help))
		}
	}
	sort.Strings(out)
	return out
}

// TestInventoryGolden pins the registered series — name, kind and HELP — of
// a single-table and a sharded service against a committed list, so a change
// to how the layers count cannot rename, re-kind or drop a series unnoticed.
func TestInventoryGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tables := range []int{1, 4} {
		fmt.Fprintf(&got, "== tables=%d\n", tables)
		for _, line := range inventory(t, tables) {
			got.WriteString(line + "\n")
		}
	}
	const path = "testdata/inventory.golden"
	if *updateInventory {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("series inventory drifted from %s (rerun with -update-inventory only if the rename is intended)\ngot:\n%s", path, got.Bytes())
	}
}
