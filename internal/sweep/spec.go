package sweep

import (
	"errors"
	"fmt"

	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/workload"
)

// Spec declares a scenario sweep over the discrete configuration space.
// The grid axes (Mixes × Schemes × Models × slack levels × Oracle ×
// BaselineFreqIdxs × SwitchScales × BandwidthGBps × Feedback) expand to
// their cartesian product; Points appends fully-specified extra runs (for
// shapes a grid cannot express, e.g. per-core slack subsets). Axes left
// nil default to the single neutral value, so a minimal sweep only names
// DB, Mixes, Schemes and Models.
type Spec struct {
	// Name labels the sweep in emitted rows and progress output.
	Name string
	DB   *simdb.DB

	Mixes   []workload.Mix
	Schemes []core.Scheme
	Models  []core.ModelKind
	// Slacks are uniform QoS relaxations; SlackVectors are per-core
	// relaxation vectors. Together they form the slack axis, Slacks first.
	Slacks       []float64
	SlackVectors [][]float64
	Oracle       []bool
	// BaselineFreqIdxs overrides the baseline frequency (-1 = keep).
	BaselineFreqIdxs []int
	SwitchScales     []float64
	BandwidthGBps    []float64
	Feedback         []bool

	// Points are explicit extra runs appended after the grid, in order.
	Points []RunSpec
}

// Compile expands the spec into the ordered list of runs. The expansion
// order is fixed and documented: Mixes outermost, then Schemes, Models,
// slack levels (uniform Slacks before SlackVectors), Oracle,
// BaselineFreqIdxs, SwitchScales, BandwidthGBps, Feedback innermost —
// followed by the explicit Points. Callers rely on this order to index
// results, so it must never change.
func (s *Spec) Compile() ([]RunSpec, error) {
	if len(s.Mixes) == 0 && len(s.Points) == 0 {
		return nil, errors.New("sweep: spec has neither grid mixes nor explicit points")
	}
	var specs []RunSpec
	if len(s.Mixes) > 0 {
		if s.DB == nil {
			return nil, errors.New("sweep: grid spec needs a database")
		}
		if len(s.Schemes) == 0 {
			return nil, fmt.Errorf("sweep %q: grid spec needs at least one scheme", s.Name)
		}
		if len(s.Models) == 0 {
			return nil, fmt.Errorf("sweep %q: grid spec needs at least one model", s.Name)
		}
		type slackLevel struct {
			uniform float64
			vector  []float64
		}
		slacks := make([]slackLevel, 0, len(s.Slacks)+len(s.SlackVectors))
		for _, v := range s.Slacks {
			slacks = append(slacks, slackLevel{uniform: v})
		}
		for _, v := range s.SlackVectors {
			slacks = append(slacks, slackLevel{vector: v})
		}
		if len(slacks) == 0 {
			slacks = []slackLevel{{}}
		}
		oracles := s.Oracle
		if len(oracles) == 0 {
			oracles = []bool{false}
		}
		baselines := s.BaselineFreqIdxs
		if len(baselines) == 0 {
			baselines = []int{-1}
		}
		switches := s.SwitchScales
		if len(switches) == 0 {
			switches = []float64{0}
		}
		bandwidths := s.BandwidthGBps
		if len(bandwidths) == 0 {
			bandwidths = []float64{0}
		}
		feedbacks := s.Feedback
		if len(feedbacks) == 0 {
			feedbacks = []bool{false}
		}
		for _, mix := range s.Mixes {
			for _, scheme := range s.Schemes {
				for _, model := range s.Models {
					for _, sl := range slacks {
						for _, oracle := range oracles {
							for _, bf := range baselines {
								for _, sw := range switches {
									for _, bw := range bandwidths {
										for _, fb := range feedbacks {
											specs = append(specs, RunSpec{
												DB: s.DB, Mix: mix, Scheme: scheme, Model: model,
												Oracle: oracle, Slack: sl.uniform, PerCoreSlack: sl.vector,
												BaselineFreqIdx: bf, Feedback: fb,
												SwitchScale: sw, PerCoreGBps: bw,
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, p := range s.Points {
		if p.DB == nil {
			p.DB = s.DB
		}
		if p.DB == nil {
			return nil, fmt.Errorf("sweep %q: explicit point without a database", s.Name)
		}
		specs = append(specs, p)
	}
	return specs, nil
}
