package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden artifacts under testdata/golden")

// TestGoldenArtifacts pins small-scale experiment artifacts
// byte-for-byte. Every PR in this repository has claimed
// "byte-identical artifacts" after refactors; this harness turns that
// claim from a manual diff into an enforced regression test. The
// cases span the major artifact families (paper table, fluid model,
// scenario engine, fleet engine) at scales that run in a few seconds.
//
// To re-bless after an intentional artifact change:
//
//	go test ./internal/experiments -run TestGoldenArtifacts -update
func TestGoldenArtifacts(t *testing.T) {
	cases := []struct {
		name string
		run  func() string
	}{
		{"table1_n2_40s", func() string {
			return Table1(Options{N: 2, Seed: 1, Duration: 40 * time.Second}).Artifact.String()
		}},
		{"model-agg_n2", func() string {
			return ModelAggregate(Options{N: 2, Seed: 1}).Artifact.String()
		}},
		{"scenario-ratedrop_n1_120s", func() string {
			return ScenarioRateDrop(Options{N: 1, Seed: 1, Duration: 120 * time.Second}).Artifact.String()
		}},
		// Six clients on one shared bottleneck per strategy: the
		// multi-client session.Shared path.
		{"scenario-flashcrowd_n1_90s", func() string {
			return ScenarioFlashCrowd(Options{N: 1, Seed: 1, Duration: 90 * time.Second}).Artifact.String()
		}},
		// 150 s is the shortest horizon whose post-warmup window is
		// fully steady-state; shorter horizons pin a transient-phase
		// artifact whose burstiness ordering is not the paper's claim.
		{"fleet-burstiness_n1_150s", func() string {
			return AggregateBurstiness(Options{N: 1, Seed: 1, Duration: 150 * time.Second}).Artifact.String()
		}},
		{"abr-ratedrop_n1_120s", func() string {
			return AbrRateDrop(Options{N: 1, Seed: 1, Duration: 120 * time.Second}).Artifact.String()
		}},
		{"ccmatrix_n1_120s", func() string {
			return CcMatrix(Options{N: 1, Seed: 1, Duration: 120 * time.Second}).Artifact.String()
		}},
		// Every player kind over a full 180 s capture: the paper's
		// nine clients and the ABR kinds, each on its own path.
		{"players_180s", playersGolden},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run()
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden artifact (run with -update to bless): %v", err)
			}
			if got != string(want) {
				t.Fatalf("artifact drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// playersGolden runs one 180 s session of every scenario player kind on
// the Research and Residence profiles (seed 1) and renders one line per
// session: what the wire carried, what the analyzer classified and what
// the viewer saw.
func playersGolden() string {
	var cfgs []session.Config
	for _, k := range scenario.PlayerKinds() {
		for _, p := range []netem.Profile{netem.Research, netem.Residence} {
			cfgs = append(cfgs, scenario.Spec{Profile: p, Player: k, Duration: 180 * time.Second, Seed: 1}.Configs()[0])
		}
	}
	var b strings.Builder
	for i, r := range runSessions(Options{}, cfgs) {
		a := r.Analysis
		blocks := make([]float64, len(a.Blocks))
		for j, n := range a.Blocks {
			blocks[j] = float64(n)
		}
		median := 0.0
		if len(blocks) > 0 {
			median = stats.Median(blocks)
		}
		fmt.Fprintf(&b, "%-15s %-9s %-31s pkts=%d down=%d %-12s cycles=%d block=%.0f retrans=%d startup=%v rebuf=%d\n",
			scenario.PlayerKinds()[i/2], r.Config.Network.Name, r.Config.Player.Name(),
			r.Packets, r.Downloaded, a.Strategy, len(a.Cycles), median, a.Retrans,
			r.QoE.StartupDelay, r.QoE.Rebuffers)
	}
	return b.String()
}
