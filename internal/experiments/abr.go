package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/scenario"
)

// The ABR experiment family closes the loop the paper leaves open:
// its Table-1 players react to congestion only through TCP, so a
// bandwidth drop degrades them into stalls — the client-side answer
// is switching rendition rungs. AbrRateDrop runs that comparison at
// fleet scale under the PR 2 rate-drop timeline.

// AbrRow is one controller's fleet outcome under the rate drop.
type AbrRow struct {
	Controller  string
	Clients     int
	RebufP50    float64 // rebuffer events per client
	RebufP90    float64
	StallSecP50 float64 // rebuffer seconds per client
	StallSecP90 float64
	StartupP50  float64 // startup delay seconds
	SwitchP50   float64 // rendition switches per client
	FetchedP50  float64 // duration-weighted mean fetched Mbps
	RungShare   []float64
	CoreLoss    float64
}

// AbrRateDropResult is the controller sweep.
type AbrRateDropResult struct {
	Rows     []AbrRow
	Artifact Artifact
}

// abrDropMbps is the post-drop aggregation-link rate: with the
// default 32 clients per 200 Mbps aggregation link, 24 Mbps leaves
// 0.75 Mbps per client — between the two bottom ladder rungs, so a
// controller that refuses to leave the top rung cannot avoid stalls.
const abrDropMbps = 24

// abrFleet builds one controller's fleet: o.N aggregation groups of
// 32 adaptive clients each (one tree shard per group), streaming a
// 900 s laddered title while every aggregation link drops to
// abrDropMbps at one third of the horizon.
func abrFleet(kind scenario.PlayerKind, o Options) scenario.Fleet {
	return scenario.Fleet{
		Name:     "abr-ratedrop/" + kind.String(),
		Mix:      []scenario.MixEntry{{Player: kind, Weight: 1}},
		Clients:  o.N * 32,
		Duration: o.Duration,
		Arrival:  scenario.Arrival{Kind: scenario.Staggered, Window: o.Duration / 6},
		Down:     netem.Dynamics{}.Then(netem.RateStep(o.Duration/3, abrDropMbps*netem.Mbps)),
		Seed:     o.Seed + 31,
		Video:    media.Video{Duration: 900 * time.Second, Resolution: "adaptive"}.WithLadder(media.DefaultLadder()...),
	}
}

// AbrRateDrop streams three fleets — the fixed-top-rung null
// controller, the throughput-EWMA rate rule, and the BBA-style
// buffer-based controller — through the same mid-run aggregation-tier
// rate drop, and compares playback QoE. The headline: the adaptive
// controllers trade bitrate for near-zero rebuffering (they walk down
// the ladder as the drop bites), while the fixed-rung fleet keeps
// requesting 3.8 Mbps through a 0.75 Mbps share and stalls for most
// of the post-drop horizon. Results are bit-identical for any worker
// count; scale comes from sharding, one tree per aggregation group.
func AbrRateDrop(o Options) *AbrRateDropResult {
	o = o.withDefaults()
	kinds := []scenario.PlayerKind{scenario.AbrFixed, scenario.AbrRate, scenario.AbrBuffer}
	res := &AbrRateDropResult{Artifact: Artifact{Title: "Extension: ABR controllers vs a fixed rung under a fleet-scale rate drop"}}
	res.Artifact.Addf("%d clients/controller on %d x 200 Mbps agg links; drop to %d Mbps (0.75 Mbps/client) at t=%v of %v",
		o.N*32, o.N, abrDropMbps, o.Duration/3, o.Duration)
	res.Artifact.Addf("%-12s %-8s %-16s %-18s %-10s %-10s %-10s", "controller", "clients",
		"rebuffers p50/p90", "stall s p50/p90", "switches", "Mbps p50", "rungs (occupancy)")
	for _, k := range kinds {
		f := abrFleet(k, o)
		r := scenario.RunFleet(o.pool(), f)
		row := AbrRow{
			Controller:  strings.TrimPrefix(k.String(), "abr-"),
			Clients:     r.Clients,
			RebufP50:    r.RebufCount.Quantile(0.5),
			RebufP90:    r.RebufCount.Quantile(0.9),
			StallSecP50: r.RebufSec.Quantile(0.5),
			StallSecP90: r.RebufSec.Quantile(0.9),
			StartupP50:  r.StartupSec.Quantile(0.5),
			SwitchP50:   r.SwitchCount.Quantile(0.5),
			FetchedP50:  r.FetchedMbps.Quantile(0.5),
			RungShare:   r.RungShare(),
			CoreLoss:    r.InducedCoreLoss,
		}
		res.Rows = append(res.Rows, row)
		shares := make([]string, len(row.RungShare))
		for i, s := range row.RungShare {
			shares[i] = fmt.Sprintf("%.0f%%", s*100)
		}
		res.Artifact.Addf("%-12s %-8d %-16s %-18s %-10s %-10.2f %s",
			row.Controller, row.Clients,
			fmt.Sprintf("%.0f / %.0f", row.RebufP50, row.RebufP90),
			fmt.Sprintf("%.1f / %.1f", row.StallSecP50, row.StallSecP90),
			fmt.Sprintf("%.0f", row.SwitchP50),
			row.FetchedP50, strings.Join(shares, " "))
	}
	res.Artifact.Addf("a ladder is the client-side answer to congestion: adaptive fleets trade bitrate for smooth playback")
	return res
}
