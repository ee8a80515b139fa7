package experiments

import (
	"testing"
	"time"
)

func TestAggregateLossOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{N: 3, Seed: 5, Duration: 90 * time.Second}
	res := AggregateLoss(o)
	if len(res.Rows) != 3 {
		t.Fatal("rows")
	}
	short, long, bulk := res.Rows[0], res.Rows[1], res.Rows[2]
	// Bulk transfers must induce the most queue loss.
	if !(bulk.InducedLoss > short.InducedLoss) {
		t.Fatalf("bulk should induce more loss than short ON-OFF:\n%s", res.Artifact.String())
	}
	// Rate-limited strategies deliver close to their model rate.
	for _, r := range []AggregateRow{short, long} {
		if r.MeanRateMbps < 0.5*r.ModelMean || r.MeanRateMbps > 1.8*r.ModelMean {
			t.Errorf("%s: measured %.1f Mbps vs model %.1f", r.Strategy, r.MeanRateMbps, r.ModelMean)
		}
	}
	_ = long
}
