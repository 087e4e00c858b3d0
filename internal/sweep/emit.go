package sweep

import (
	"strconv"
	"strings"

	"qosrma/internal/rmasim"
)

// Row is one aggregated sweep record: the point's configuration plus the
// headline metrics of its simulation, flat enough to stream as CSV or
// JSON lines.
type Row struct {
	Sweep string `json:"sweep,omitempty"`
	Index int    `json:"index"`

	Mix    string `json:"mix"`
	Apps   string `json:"apps"`
	Scheme string `json:"scheme"`
	Model  string `json:"model"`
	Oracle bool   `json:"oracle,omitempty"`

	Slack           []float64 `json:"slack,omitempty"`
	BaselineFreqIdx int       `json:"baseline_freq_idx"`
	Feedback        bool      `json:"feedback,omitempty"`
	SwitchScale     float64   `json:"switch_scale,omitempty"`
	PerCoreGBps     float64   `json:"per_core_gbps,omitempty"`

	EnergySavings      float64 `json:"energy_savings"`
	Violations         int     `json:"violations"`
	Intervals          int     `json:"intervals"`
	IntervalViolations int     `json:"interval_violations"`
	ViolationMeanPct   float64 `json:"violation_mean_pct"`
	ViolationStdPct    float64 `json:"violation_std_pct"`
}

// makeRow flattens one executed point.
func makeRow(sweepName string, idx int, spec RunSpec, res *rmasim.Result) Row {
	n := 0
	if spec.DB != nil {
		n = spec.DB.Sys.NumCores
	}
	return Row{
		Sweep:              sweepName,
		Index:              idx,
		Mix:                spec.Mix.Name,
		Apps:               strings.Join(spec.Mix.Apps, "+"),
		Scheme:             spec.Scheme.String(),
		Model:              spec.Model.String(),
		Oracle:             spec.Oracle,
		Slack:              spec.effectiveSlack(n),
		BaselineFreqIdx:    spec.BaselineFreqIdx,
		Feedback:           spec.Feedback,
		SwitchScale:        spec.SwitchScale,
		PerCoreGBps:        spec.PerCoreGBps,
		EnergySavings:      res.EnergySavings,
		Violations:         res.Violations,
		Intervals:          res.Intervals,
		IntervalViolations: res.IntervalViolations,
		ViolationMeanPct:   res.ViolationMeanPct,
		ViolationStdPct:    res.ViolationStdPct,
	}
}

// csvHeader is the fixed column order of a row's CSV form.
var csvHeader = []string{
	"sweep", "index", "mix", "apps", "scheme", "model", "oracle", "slack",
	"baseline_freq_idx", "feedback", "switch_scale", "per_core_gbps",
	"energy_savings", "violations", "intervals", "interval_violations",
	"violation_mean_pct", "violation_std_pct",
}

// CSVHeader names the CSV columns.
func (Row) CSVHeader() []string { return csvHeader }

// CSVRecord renders the row in csvHeader's column order.
func (r Row) CSVRecord() []string {
	slack := make([]string, len(r.Slack))
	for i, v := range r.Slack {
		slack[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return []string{
		r.Sweep,
		strconv.Itoa(r.Index),
		r.Mix,
		r.Apps,
		r.Scheme,
		r.Model,
		strconv.FormatBool(r.Oracle),
		strings.Join(slack, "|"),
		strconv.Itoa(r.BaselineFreqIdx),
		strconv.FormatBool(r.Feedback),
		strconv.FormatFloat(r.SwitchScale, 'g', -1, 64),
		strconv.FormatFloat(r.PerCoreGBps, 'g', -1, 64),
		strconv.FormatFloat(r.EnergySavings, 'g', -1, 64),
		strconv.Itoa(r.Violations),
		strconv.Itoa(r.Intervals),
		strconv.Itoa(r.IntervalViolations),
		strconv.FormatFloat(r.ViolationMeanPct, 'g', -1, 64),
		strconv.FormatFloat(r.ViolationStdPct, 'g', -1, 64),
	}
}
