package experiments

import "time"

// Experiment is one Registry entry: the id that vsweep -exp, the bench
// suite and the golden file name share, the runner, and the scale its
// golden artifact pins.
type Experiment struct {
	ID     string
	Run    func(Options) *Artifact
	Golden Options
}

// Registry returns every experiment in presentation order: Table 1,
// Figures 1-12, Table 2 and the Section 6 model, then the scenario,
// fleet, ABR and CC/AQM extensions, the shared-bottleneck loss
// extension and the ablations.
func Registry() []Experiment {
	// The paper's 180 s capture, two videos per cell.
	paper := Options{N: 2, Seed: 1}
	at := func(n int, seconds time.Duration) Options {
		return Options{N: n, Seed: 1, Duration: seconds * time.Second}
	}
	return []Experiment{
		{"table1", func(o Options) *Artifact { return &Table1(o).Artifact }, at(2, 40)},
		{"fig1", func(o Options) *Artifact { return &Figure1(o).Artifact }, paper},
		{"fig2", func(o Options) *Artifact { return &Figure2(o).Artifact }, paper},
		{"fig3", func(o Options) *Artifact { return &Figure3(o).Artifact }, paper},
		{"fig4", func(o Options) *Artifact { return &Figure4(o).Artifact }, paper},
		{"fig5", func(o Options) *Artifact { return &Figure5(o).Artifact }, paper},
		{"fig6", func(o Options) *Artifact { return &Figure6(o).Artifact }, paper},
		{"fig7", func(o Options) *Artifact { return &Figure7(o).Artifact }, paper},
		{"fig8", func(o Options) *Artifact { return &Figure8(o).Artifact }, paper},
		{"fig9", func(o Options) *Artifact { return &Figure9(o, false).Artifact }, paper},
		{"fig9-idlereset", func(o Options) *Artifact { return &Figure9(o, true).Artifact }, paper},
		{"fig10", func(o Options) *Artifact { return &Figure10(o).Artifact }, paper},
		{"fig11", func(o Options) *Artifact { return &Figure11(o).Artifact }, paper},
		{"fig12", func(o Options) *Artifact { return &Figure12(o).Artifact }, paper},
		{"table2", func(o Options) *Artifact { return &Table2(o).Artifact }, paper},
		{"model-agg", func(o Options) *Artifact { return &ModelAggregate(o).Artifact }, paper},
		{"model-smooth", func(o Options) *Artifact { return &ModelSmoothness(o).Artifact }, paper},
		{"model-interrupt", func(o Options) *Artifact { return &ModelInterruption(o).Artifact }, paper},
		{"model-waste", func(o Options) *Artifact { return &ModelWaste(o).Artifact }, paper},
		{"scenario-ratedrop", func(o Options) *Artifact { return &ScenarioRateDrop(o).Artifact }, at(1, 120)},
		// Six clients on one shared bottleneck per strategy: the
		// multi-client session.Shared path.
		{"scenario-flashcrowd", func(o Options) *Artifact { return &ScenarioFlashCrowd(o).Artifact }, at(1, 90)},
		// 150 s is the shortest horizon whose post-warmup window is
		// fully steady-state; shorter horizons pin a transient-phase
		// artifact whose burstiness ordering is not the paper's claim.
		{"fleet-burstiness", func(o Options) *Artifact { return &AggregateBurstiness(o).Artifact }, at(1, 150)},
		{"abr-ratedrop", func(o Options) *Artifact { return &AbrRateDrop(o).Artifact }, at(1, 120)},
		{"ccmatrix", func(o Options) *Artifact { return &CcMatrix(o).Artifact }, at(1, 120)},
		{"aggregate-loss", func(o Options) *Artifact { return &AggregateLoss(o).Artifact }, paper},
		{"ablation-recvbuf", func(o Options) *Artifact { return &AblationRecvBuffer(o).Artifact }, paper},
		{"ablation-loss", func(o Options) *Artifact { return &AblationLoss(o).Artifact }, paper},
	}
}
