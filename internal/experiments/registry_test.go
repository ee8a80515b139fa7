package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestRegistry pins the id rules the registry's consumers rely on, and
// that testdata/golden holds only registered ids (plus players_180s),
// so a golden left under an old name fails here.
func TestRegistry(t *testing.T) {
	valid := regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	// vbench strips a -N GOMAXPROCS suffix from benchmark names, so
	// BenchmarkExperiment/fig9-2 would be recorded as .../fig9.
	procSuffix := regexp.MustCompile(`-[0-9]+$`)
	ids := map[string]bool{"players_180s": true}
	for _, e := range Registry() {
		if !valid.MatchString(e.ID) || procSuffix.MatchString(e.ID) {
			t.Errorf("id %q must match %v and not end in -<digits>", e.ID, valid)
		}
		if ids[e.ID] {
			t.Errorf("id %q registered twice", e.ID)
		}
		ids[e.ID] = true
	}
	files, err := os.ReadDir("testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id, ok := strings.CutSuffix(f.Name(), ".golden"); !ok || !ids[id] {
			t.Errorf("testdata/golden/%s is no registered experiment's golden", f.Name())
		}
	}
}
