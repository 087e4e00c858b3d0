package cluster

import "strconv"

// Row is one job's flattened outcome, streamed in global departure order
// as the scenario executes — the cluster counterpart of the sweep
// engine's per-point rows.
type Row struct {
	JobID   int    `json:"job"`
	Bench   string `json:"bench"`
	Machine int    `json:"machine"`
	Core    int    `json:"core"`

	ArrivalSec float64 `json:"arrival_sec"`
	StartSec   float64 `json:"start_sec"`
	WaitSec    float64 `json:"wait_sec"`
	FinishSec  float64 `json:"finish_sec"`

	TimeSec      float64 `json:"time_sec"`
	BaselineSec  float64 `json:"baseline_sec"`
	ExcessTime   float64 `json:"excess_time"`
	AllowedSlack float64 `json:"allowed_slack,omitempty"`
	Violated     bool    `json:"violated,omitempty"`

	Energy         float64 `json:"energy_j"`
	BaselineEnergy float64 `json:"baseline_energy_j"`
	MeanFreqGHz    float64 `json:"mean_freq_ghz"`
	MeanWays       float64 `json:"mean_ways"`
}

// rowOf flattens one completed job.
func rowOf(r JobResult) Row {
	return Row{
		JobID:          r.Job.ID,
		Bench:          r.Job.Bench,
		Machine:        r.Machine,
		Core:           r.Core,
		ArrivalSec:     r.Job.TimeSec,
		StartSec:       r.StartSec,
		WaitSec:        r.WaitSec,
		FinishSec:      r.FinishSec,
		TimeSec:        r.App.Time,
		BaselineSec:    r.App.BaselineTime,
		ExcessTime:     r.App.ExcessTime,
		AllowedSlack:   r.App.AllowedSlack,
		Violated:       r.App.Violated(),
		Energy:         r.App.Energy,
		BaselineEnergy: r.App.BaselineEnergy,
		MeanFreqGHz:    r.App.MeanFreqGHz,
		MeanWays:       r.App.MeanWays,
	}
}

// csvHeader is the fixed column order of a row's CSV form.
var csvHeader = []string{
	"job", "bench", "machine", "core",
	"arrival_sec", "start_sec", "wait_sec", "finish_sec",
	"time_sec", "baseline_sec", "excess_time", "allowed_slack", "violated",
	"energy_j", "baseline_energy_j", "mean_freq_ghz", "mean_ways",
}

// CSVHeader names the CSV columns.
func (Row) CSVHeader() []string { return csvHeader }

// CSVRecord renders the row in csvHeader's column order.
func (r Row) CSVRecord() []string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		strconv.Itoa(r.JobID),
		r.Bench,
		strconv.Itoa(r.Machine),
		strconv.Itoa(r.Core),
		g(r.ArrivalSec), g(r.StartSec), g(r.WaitSec), g(r.FinishSec),
		g(r.TimeSec), g(r.BaselineSec), g(r.ExcessTime), g(r.AllowedSlack),
		strconv.FormatBool(r.Violated),
		g(r.Energy), g(r.BaselineEnergy), g(r.MeanFreqGHz), g(r.MeanWays),
	}
}

// Rows flattens the completed jobs in arrival order.
func (r *Result) Rows() []Row {
	rows := make([]Row, len(r.Jobs))
	for i, j := range r.Jobs {
		rows[i] = rowOf(j)
	}
	return rows
}
