package experiments

import (
	"fmt"

	"github.com/gpf-go/gpf/internal/cluster"
)

// Table5Row is one platform of Table 5.
type Table5Row struct {
	System             string
	ParallelFramework  string
	InMemory           bool
	Cores              int
	ParallelEfficiency float64
	Measured           bool // true when computed from this repo's runs
}

// Table5Result reproduces Table 5 ("Comparison of various platforms for
// genome data analysis"). GPF and Churchill efficiencies come from the
// Fig 10 simulation; the remaining rows carry the paper's cited numbers
// (they are literature values in the paper too).
type Table5Result struct {
	Rows []Table5Row
}

// Table5 derives the measured rows from Fig 10 over the same runs, so its GPF
// row is Fig 10's efficiency, and fills the cited ones.
func Table5(runs *Runs) (*Table5Result, error) {
	f10, err := Fig10(runs)
	if err != nil {
		return nil, err
	}
	first := f10.Points[0]
	var ch1024 Table5Row
	for _, p := range f10.Points {
		if p.Cores == 1024 && p.ChurchillTime > 0 {
			ch1024 = Table5Row{
				System: "Churchill", ParallelFramework: "full", InMemory: false,
				Cores:              1024,
				ParallelEfficiency: cluster.Efficiency(first.ChurchillTime, first.Cores, p.ChurchillTime, p.Cores),
				Measured:           true,
			}
		}
	}
	res := &Table5Result{Rows: []Table5Row{
		{System: "GPF", ParallelFramework: "full", InMemory: true, Cores: 2048,
			ParallelEfficiency: f10.GPFEfficiency, Measured: true},
		ch1024,
		{System: "HugeSeq", ParallelFramework: "full", InMemory: false, Cores: 48, ParallelEfficiency: 0.50},
		{System: "GATK-Queue", ParallelFramework: "full", InMemory: false, Cores: 48, ParallelEfficiency: 0.50},
		{System: "ADAM", ParallelFramework: "Cleaner", InMemory: true, Cores: 1024, ParallelEfficiency: 0.148},
		{System: "GATK4", ParallelFramework: "Cleaner&Caller", InMemory: true, Cores: 1024, ParallelEfficiency: 0.416},
		{System: "Persona-BWA", ParallelFramework: "Aligner&Cleaner", InMemory: false, Cores: 512, ParallelEfficiency: 0.511},
	}}
	return res, nil
}

// Format renders the table in the paper's layout.
func (r *Table5Result) Format() []string {
	out := []string{row("Table 5: system", "Framework", "In-memory", "#Cores", "Parallel Efficiency")}
	for _, rw := range r.Rows {
		mem := "x"
		if rw.InMemory {
			mem = "yes"
		}
		src := "(cited)"
		if rw.Measured {
			src = "(measured)"
		}
		out = append(out, row(rw.System,
			fmt.Sprintf("%15s", rw.ParallelFramework),
			fmt.Sprintf("%9s", mem),
			fmt.Sprintf("%6d", rw.Cores),
			fmt.Sprintf("%8.1f%% %s", 100*rw.ParallelEfficiency, src),
		))
	}
	return out
}
