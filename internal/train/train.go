package train

import (
	"fmt"

	"repro/internal/autograd"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/tensor"
)

// Backend selects where training steps execute.
type Backend int

const (
	// CPU runs each step through the graph reference executor.
	CPU Backend = iota
	// NPU runs each step through the compiled kernels on the functional
	// simulator (Table 2: full training = TOGSim + Spike; loss values from
	// the functional model drive the iteration count).
	NPU
)

// Config parameterizes a training run.
type Config struct {
	MLP     nn.MLPConfig
	LR      float32
	Steps   int
	Backend Backend
	NPUCfg  npu.Config // used by the NPU backend
	Seed    uint64
	// EvalEvery, when > 0, records the evaluation-set loss every that many
	// steps (the smooth convergence signal the batch-size study uses).
	EvalEvery int
	// Optim selects the optimizer; the zero value is plain SGD with LR
	// taken from the LR field above.
	Optim autograd.Optim
}

// Result reports a training run.
type Result struct {
	Losses        []float32
	EvalLosses    []float32 // eval-set loss at every EvalEvery steps
	FinalAccuracy float64
	// CyclesPerIter is the TLS per-iteration cycle count (0 for CPU runs
	// unless measured separately).
	CyclesPerIter int64
}

// Run trains the MLP on ds and evaluates accuracy on eval.
func Run(cfg Config, ds, eval *Dataset) (*Result, error) {
	m, lossID := nn.MLPWithLoss(cfg.MLP)
	opt := cfg.Optim
	if opt.LR == 0 {
		opt.LR = cfg.LR
	}
	ts, err := autograd.BuildOptim(m.Graph, lossID, opt)
	if err != nil {
		return nil, err
	}
	env := m.InitParams(cfg.Seed)
	// Optimizer state starts at zero.
	for name, id := range ts.States {
		env.Set(name, tensor.New(ts.Graph.Nodes[id].Shape...))
	}

	var comp *compiler.Compiled
	if cfg.Backend == NPU {
		c := compiler.New(cfg.NPUCfg, compiler.DefaultOptions())
		comp, err = c.Compile(ts.Graph)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{}
	for step := 0; step < cfg.Steps; step++ {
		x, y := ds.BatchAt(step, cfg.MLP.Batch)
		env.Set("x", x)
		env.Set("labels", y)
		if opt.Kind == autograd.OptAdam {
			c := autograd.AdamCoef(opt, step+1)
			env.Set(autograd.AdamCoefName, tensor.FromSlice(c[:], 2))
		}
		switch cfg.Backend {
		case CPU:
			vals, err := graph.Execute(ts.Graph, env)
			if err != nil {
				return nil, err
			}
			res.Losses = append(res.Losses, vals[lossID].Data[0])
			for pname, uid := range ts.Updated {
				env.Set(pname, vals[uid])
			}
			for sname, sid := range ts.States {
				env.Set(sname, vals[sid])
			}
		case NPU:
			out, err := compiler.RunFunctional(comp, ts.Graph, env)
			if err != nil {
				return nil, err
			}
			lossName := comp.OutputTensors[lossID]
			res.Losses = append(res.Losses, out[lossName].Data[0])
			for pname, uid := range ts.Updated {
				env.Set(pname, out[comp.OutputTensors[uid]])
			}
			for sname, sid := range ts.States {
				env.Set(sname, out[comp.OutputTensors[sid]])
			}
		}
		if cfg.EvalEvery > 0 && (step+1)%cfg.EvalEvery == 0 {
			res.EvalLosses = append(res.EvalLosses, EvalLoss(cfg.MLP, env, eval))
		}
	}
	res.FinalAccuracy = Accuracy(cfg.MLP, env, eval)
	return res, nil
}

// EvalLoss computes the mean cross-entropy of the current parameters on
// the evaluation set (forward pass on the CPU reference).
func EvalLoss(cfg nn.MLPConfig, env *graph.Env, eval *Dataset) float32 {
	lossCfg := cfg
	lossCfg.Batch = eval.N()
	m, lossID := nn.MLPWithLoss(lossCfg)
	fenv := graph.NewEnv()
	for name, t := range env.Values {
		fenv.Set(name, t)
	}
	fenv.Set("x", eval.Images)
	fenv.Set("labels", eval.Labels)
	vals, err := graph.Execute(m.Graph, fenv)
	if err != nil {
		panic(fmt.Sprintf("train: eval loss failed: %v", err))
	}
	return vals[lossID].Data[0]
}

// Accuracy evaluates classification accuracy of the current parameters on
// the evaluation set (forward pass on the CPU reference).
func Accuracy(cfg nn.MLPConfig, env *graph.Env, eval *Dataset) float64 {
	fwdCfg := cfg
	fwdCfg.Batch = eval.N()
	fm := nn.MLP(fwdCfg)
	fenv := graph.NewEnv()
	for name, t := range env.Values {
		fenv.Set(name, t)
	}
	fenv.Set("x", eval.Images)
	vals, err := graph.Execute(fm.Graph, fenv)
	if err != nil {
		panic(fmt.Sprintf("train: eval forward failed: %v", err))
	}
	logits := vals[fm.OutputID]
	correct := 0
	for i := 0; i < eval.N(); i++ {
		if tensor.ArgMaxRow(logits, i) == int(eval.Labels.Data[i]) {
			correct++
		}
	}
	return float64(correct) / float64(eval.N())
}

// MeasureIterationCycles compiles the training-step graph for the given
// batch size and returns the TLS per-iteration cycle count (Table 2:
// single-iteration training performance needs only the timing model).
func MeasureIterationCycles(mlp nn.MLPConfig, lr float32, cfg npu.Config) (int64, error) {
	return MeasureIterationCyclesOptim(mlp, autograd.Optim{Kind: autograd.OptSGD, LR: lr}, cfg)
}

// MeasureIterationCyclesOptim is MeasureIterationCycles with a configurable
// optimizer — the per-iteration cost of the optimizer's update kernels
// (momentum's extra AXPBY pass, Adam's two EMAs plus the SFU step) is part
// of the measured TOG.
func MeasureIterationCyclesOptim(mlp nn.MLPConfig, opt autograd.Optim, cfg npu.Config) (int64, error) {
	m, lossID := nn.MLPWithLoss(mlp)
	ts, err := autograd.BuildOptim(m.Graph, lossID, opt)
	if err != nil {
		return 0, err
	}
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	comp, err := sim.Compile(ts.Graph)
	if err != nil {
		return 0, err
	}
	rep, err := sim.SimulateTLS(comp, core.SimpleNet)
	return rep.Cycles, err
}

// StepsToLoss returns how many steps a loss curve took to first dip below
// the threshold (len(losses) if never).
func StepsToLoss(losses []float32, threshold float32) int {
	for i, l := range losses {
		if l < threshold {
			return i + 1
		}
	}
	return len(losses)
}

// StepsToLossSmoothed applies an exponential moving average (factor alpha)
// before thresholding; per-batch losses at small batch sizes are far too
// noisy to gate convergence on directly.
func StepsToLossSmoothed(losses []float32, threshold, alpha float32) int {
	if len(losses) == 0 {
		return 0
	}
	ema := losses[0]
	for i, l := range losses {
		ema = (1-alpha)*ema + alpha*l
		if ema < threshold {
			return i + 1
		}
	}
	return len(losses)
}
