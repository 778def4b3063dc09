package rt_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rt"
)

// recorder returns a set of n actions whose guards read enabled and whose
// bodies append their index to *ran.
func recorder(n int, enabled []bool, ran *[]int) *rt.Actions {
	s := new(rt.Actions)
	for i := 0; i < n; i++ {
		i := i
		s.Add(rt.Action{
			Name:  fmt.Sprint(i),
			Guard: func() bool { return enabled[i] },
			Body:  func() { *ran = append(*ran, i) },
		})
	}
	return s
}

func TestActionsRotation(t *testing.T) {
	enabled := []bool{true, true, true}
	var ran []int
	s := recorder(3, enabled, &ran)
	for i := 0; i < 7; i++ {
		if !s.Step() {
			t.Fatalf("step %d ran nothing with every guard true", i)
		}
	}
	if want := []int{0, 1, 2, 0, 1, 2, 0}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}

	// A disabled action is skipped, and the cursor lands after the one run.
	ran, enabled[2] = nil, false
	s.Step() // cursor 1: runs 1
	s.Step() // cursor 2: skips 2, wraps to 0
	if want := []int{1, 0}; !reflect.DeepEqual(ran, want) || s.Cursor() != 1 {
		t.Fatalf("ran %v with cursor %d, want %v with cursor 1", ran, s.Cursor(), want)
	}
}

// TestActionsAlwaysEnabledRunsWithinLen: from every cursor position and with
// every other action enabled, an always-enabled action runs within Len()
// steps — the weak-fairness bound.
func TestActionsAlwaysEnabledRunsWithinLen(t *testing.T) {
	const n, target = 5, 3
	enabled := []bool{true, true, true, true, true}
	for start := 0; start < n; start++ {
		var ran []int
		s := recorder(n, enabled, &ran)
		for i := 0; i < start; i++ {
			s.Step()
		}
		ran = ran[:0]
		for steps := 1; ; steps++ {
			s.Step()
			if ran[len(ran)-1] == target {
				break
			}
			if steps == s.Len() {
				t.Fatalf("from cursor %d: action %d did not run within %d steps (ran %v)", start, target, s.Len(), ran)
			}
		}
	}
}

func TestActionsRewind(t *testing.T) {
	enabled := []bool{true, true, true}
	var ran []int
	s := recorder(3, enabled, &ran)
	s.Step()
	s.Step()
	s.Rewind()
	if s.Cursor() != 0 {
		t.Fatalf("cursor %d after Rewind, want 0", s.Cursor())
	}
	ran = nil
	s.Step()
	if !reflect.DeepEqual(ran, []int{0}) {
		t.Fatalf("first step after Rewind ran %v, want [0]", ran)
	}
}

func TestActionsEmpty(t *testing.T) {
	var s rt.Actions
	if s.Enabled() || s.Step() || s.Cursor() != 0 {
		t.Fatalf("empty set: Enabled %v, Step ran something or cursor %d", s.Enabled(), s.Cursor())
	}
}

// TestActionsEnabled: Enabled reports whether some guard holds, and neither
// runs a body nor moves the cursor.
func TestActionsEnabled(t *testing.T) {
	enabled := []bool{false, false, false}
	var ran []int
	s := recorder(3, enabled, &ran)
	if s.Enabled() {
		t.Fatal("Enabled with every guard false")
	}
	enabled[2] = true
	if !s.Enabled() {
		t.Fatal("not Enabled with guard 2 true")
	}
	if len(ran) != 0 || s.Cursor() != 0 {
		t.Fatalf("Enabled ran %v or moved the cursor to %d", ran, s.Cursor())
	}
}

// FuzzActionsStep checks Step against a brute-force reference: data[0]
// picks the set's size (1..7); each later byte is one step, its low bits the
// guard table for that step and its top bit a Rewind before it.
func FuzzActionsStep(f *testing.F) {
	f.Add([]byte{3, 0x07, 0x07, 0x00, 0x05, 0x84, 0x02})
	f.Add([]byte{7, 0x7f, 0x40, 0x01, 0x00, 0xff, 0x20})
	f.Add([]byte{1, 0x00, 0x01, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%7
		enabled := make([]bool, n)
		var ran []int
		s := recorder(n, enabled, &ran)
		cursor := 0
		for step, b := range data[1:] {
			if b&0x80 != 0 {
				s.Rewind()
				cursor = 0
			}
			want := -1
			for i := 0; i < n; i++ {
				enabled[i] = b&(1<<i) != 0
			}
			for i := 0; i < n; i++ {
				if idx := (cursor + i) % n; enabled[idx] {
					want = idx
					break
				}
			}
			ran = ran[:0]
			got := s.Step()
			if want < 0 {
				if got || len(ran) != 0 || s.Cursor() != cursor {
					t.Fatalf("step %d, nothing enabled: Step %v ran %v, cursor %d -> %d", step, got, ran, cursor, s.Cursor())
				}
				continue
			}
			if !got || !reflect.DeepEqual(ran, []int{want}) {
				t.Fatalf("step %d, guards %07b from cursor %d: Step %v ran %v, want [%d]", step, b&0x7f, cursor, got, ran, want)
			}
			if cursor = want + 1; s.Cursor() != cursor {
				t.Fatalf("step %d: cursor %d after running %d, want %d", step, s.Cursor(), want, cursor)
			}
		}
	})
}
