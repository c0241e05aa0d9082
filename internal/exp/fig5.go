package exp

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/npu"
)

// Fig5Row is one workload's simulated cycle counts across simulators.
type Fig5Row struct {
	Workload string
	EndToEnd bool
	// Reference is the most detailed stack we have: TLS with the
	// cycle-accurate crossbar NoC and FR-FCFS DRAM. It stands in for the
	// real TPUv3 of Fig. 5 (see DESIGN.md substitutions).
	Reference int64
	// PyTorchSim is the default configuration under test (TLS-SN).
	PyTorchSim int64
	Analytical int64
	ScaleSim   int64
	MNPUSim    int64
	AccelSim   int64 // 0 when skipped (very slow on full models)
}

// Fig5Result is the accuracy-validation table.
type Fig5Result struct {
	Rows []Fig5Row
	// MAEs across workloads, per simulator (kernels only for baselines
	// that cannot run end-to-end vector ops — mirroring the paper's
	// fairness note under Fig. 5).
	MAEPyTorchSim float64
	MAEAnalytical float64
	MAEScaleSim   float64
	MAEMNPUSim    float64
	MAEAccelSim   float64
}

// Fig5 runs the accuracy validation. quick scales the workload set down.
func Fig5(cfg npu.Config, quick bool) (*Fig5Result, error) {
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	res := &Fig5Result{}
	workloads := append(KernelWorkloads(quick), ModelWorkloads(quick)...)

	var errSN, errAna, errSS, errMNP, errAcc []float64
	for _, w := range workloads {
		comp, err := sim.Compile(w.Graph)
		if err != nil {
			return nil, fmt.Errorf("fig5: compiling %s: %w", w.Name, err)
		}
		ref, err := sim.SimulateTLS(comp, core.CycleNet)
		if err != nil {
			return nil, fmt.Errorf("fig5: reference run of %s: %w", w.Name, err)
		}
		sn, err := sim.SimulateTLS(comp, core.SimpleNet)
		if err != nil {
			return nil, err
		}
		layers := baseline.ExtractLayers(w.Graph)
		ana := baseline.Analytical{Cfg: cfg}.Run(layers)
		ss := baseline.ScaleSim{Cfg: cfg}.Run(layers)
		mnp, err := baseline.MNPUSim{Cfg: cfg}.Cycles(layers)
		if err != nil {
			// mNPUsim rejects batch > 1; report zero like an unsupported run.
			mnp = 0
		}
		var acc int64
		runAccel := !w.EndToEnd || (!quick && w.Workload() == "ResNet-18")
		if runAccel {
			a := &baseline.AccelSim{Cfg: baseline.NPUEquivalentGPU(cfg)}
			acc, err = a.Run(layers)
			if err != nil {
				return nil, err
			}
		}
		row := Fig5Row{
			Workload:   w.Name,
			EndToEnd:   w.EndToEnd,
			Reference:  ref.Cycles,
			PyTorchSim: sn.Cycles,
			Analytical: ana,
			ScaleSim:   ss,
			MNPUSim:    mnp,
			AccelSim:   acc,
		}
		res.Rows = append(res.Rows, row)
		errSN = append(errSN, RelErr(sn.Cycles, ref.Cycles))
		errAna = append(errAna, RelErr(ana, ref.Cycles))
		errSS = append(errSS, RelErr(ss, ref.Cycles))
		if mnp > 0 {
			errMNP = append(errMNP, RelErr(mnp, ref.Cycles))
		}
		if acc > 0 {
			errAcc = append(errAcc, RelErr(acc, ref.Cycles))
		}
	}
	res.MAEPyTorchSim = MAE(errSN)
	res.MAEAnalytical = MAE(errAna)
	res.MAEScaleSim = MAE(errSS)
	res.MAEMNPUSim = MAE(errMNP)
	res.MAEAccelSim = MAE(errAcc)
	return res, nil
}

// Workload lets Fig5 check model names without exporting internals.
func (w Workload) Workload() string { return w.Name }

// String renders the Fig. 5 table.
func (r *Fig5Result) String() string {
	t := &Table{Header: []string{"workload", "reference(CN)", "PyTorchSim(SN)", "analytical", "scalesim", "mnpusim", "accelsim"}}
	cell := func(v int64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", v)
	}
	for _, row := range r.Rows {
		t.Add(row.Workload, cell(row.Reference), cell(row.PyTorchSim), cell(row.Analytical), cell(row.ScaleSim), cell(row.MNPUSim), cell(row.AccelSim))
	}
	var b strings.Builder
	b.WriteString("Fig. 5 — simulation accuracy (cycles; reference = TLS+CN detailed stack)\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "MAE vs reference: PyTorchSim(SN)=%s analytical=%s scalesim=%s mnpusim=%s accelsim=%s\n",
		Pct(r.MAEPyTorchSim), Pct(r.MAEAnalytical), Pct(r.MAEScaleSim), Pct(r.MAEMNPUSim), Pct(r.MAEAccelSim))
	return b.String()
}
