// Package cli is the command-line front end the simulator's commands
// share: the flags they have in common, bound onto a flag.FlagSet; the
// machine those flags name, resolved by the service's own resolver; one
// renderer for -json and -trace; and one HTTP lifecycle for the daemons.
// A flag declared here means the same thing, with the same default, in
// every command that takes it.
package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/obs/report"
	"repro/internal/service"
	"repro/internal/togsim"
)

// Main runs a command body; a failure prints "<name>: <err>" on stderr and
// exits 1.
func Main(name string, run func() error) {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// Machine is the -small/-net pair: the NPU preset and interconnect model
// a run simulates.
type Machine struct {
	Small bool
	Net   string
}

// BindMachine binds -small and -net.
func BindMachine(fs *flag.FlagSet) *Machine {
	m := &Machine{}
	fs.BoolVar(&m.Small, "small", false, "use the small NPU config instead of TPUv3")
	fs.StringVar(&m.Net, "net", "sn", "interconnect model: sn (simple) or cn (cycle-accurate crossbar)")
	return m
}

// preset is the NPU preset name -small selects.
func (m *Machine) preset() string {
	if m.Small {
		return "small"
	}
	return "tpuv3"
}

// Resolve returns the machine through service.ResolveMachine, the resolver
// every job spec goes through, so a bad -net fails with its message.
func (m *Machine) Resolve() (npu.Config, togsim.NetKind, error) {
	return service.ResolveMachine(m.preset(), m.Net)
}

// Job is the flag set ptsim and ptserve share, bound to a service.JobSpec.
type Job struct {
	*Machine
	Model, Topology, Parallel string
	MaxCycles                 int64
	CacheDir                  string
}

// BindJob binds -model (defaulting to model), -topology, -parallel,
// -small, -net, -max-cycles and -cache-dir.
func BindJob(fs *flag.FlagSet, model string) *Job {
	j := &Job{Machine: BindMachine(fs)}
	fs.StringVar(&j.Model, "model", model, "model to simulate")
	fs.StringVar(&j.Topology, "topology", "single", "topology preset: single, pkg2, or meshXxY (e.g. mesh2x2)")
	fs.StringVar(&j.Parallel, "parallel", "none", "cross-package parallelism: none, data, or tensor (multi-package topologies)")
	fs.Int64Var(&j.MaxCycles, "max-cycles", 0, "deadlock guard: abort past this many simulated cycles (0 = default)")
	fs.StringVar(&j.CacheDir, "cache-dir", "", "persist compiled kernel latencies under this directory (reused across runs)")
	return j
}

// Spec is the job the flags describe; a command fills in its own fields
// and resolves it with JobSpec.Resolve.
func (j *Job) Spec() service.JobSpec {
	return service.JobSpec{Model: j.Model, Topology: j.Topology, Parallel: j.Parallel,
		NPU: j.preset(), Net: j.Net, MaxCycles: j.MaxCycles}
}

// Output is the -json/-trace pair: where a command's report and trace go.
type Output struct {
	JSON  bool
	Trace string
	tw    *obs.TraceWriter
}

// BindOutput binds -json and -trace; what names the run ("run", "serving
// run") in their help.
func BindOutput(fs *flag.FlagSet, what string) *Output {
	o := &Output{}
	fs.BoolVar(&o.JSON, "json", false, "print the "+what+" report as JSON on stdout")
	fs.StringVar(&o.Trace, "trace", "", "write a Chrome/Perfetto trace of the "+what+" to this JSON file")
	return o
}

// Log is where progress lines go: stderr under -json, so that stdout
// carries exactly one JSON document, stdout otherwise.
func (o *Output) Log() io.Writer {
	if o.JSON {
		return os.Stderr
	}
	return os.Stdout
}

// Probe is the -trace recorder to attach to the run, or a nil interface
// without -trace (a nil *TraceWriter would be a non-nil probe).
func (o *Output) Probe() obs.Probe {
	if o.Trace == "" {
		return nil
	}
	if o.tw == nil {
		o.tw = obs.NewTraceWriter()
	}
	return o.tw
}

// Encode prints v on stdout as one indented JSON document.
func (o *Output) Encode(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Render prints a run report: as JSON under -json, otherwise as
// "<label>: <summary>" and the text breakdown, whose per-job table is
// left out unless jobs is set.
func (o *Output) Render(rep report.Report, label string, jobs bool) error {
	if o.JSON {
		return o.Encode(rep)
	}
	fmt.Printf("%s: %s\n", label, rep.Summary())
	if !jobs {
		rep.Jobs = nil
	}
	fmt.Print(rep.Text())
	return nil
}

// WriteTrace writes the recorded trace to the -trace file, if the run was
// traced, and says so on w.
func (o *Output) WriteTrace(w io.Writer) error {
	if o.tw == nil {
		return nil
	}
	if err := o.tw.WriteFile(o.Trace); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote trace (%d events) to %s\n", o.tw.Len(), o.Trace)
	return nil
}

// Daemon is the flag set ptsimd and ptsimfleet share and their HTTP
// lifecycle.
type Daemon struct {
	Addr string
	// Config carries -workers, -queue, -tenant-queue, -tenant-weights and
	// -max-cycles.
	Config   service.Config
	CacheDir string
}

// BindDaemon binds the daemon flags; addr and workers are the command's
// defaults for -addr and -workers. A malformed -tenant-weights fails the
// parse.
func BindDaemon(fs *flag.FlagSet, addr string, workers int) *Daemon {
	d := &Daemon{}
	fs.StringVar(&d.Addr, "addr", addr, "listen address (port 0 = ephemeral)")
	fs.IntVar(&d.Config.Workers, "workers", workers, "concurrent simulation workers per service (0 = the service default)")
	fs.IntVar(&d.Config.QueueDepth, "queue", 64, "job queue capacity (admission control bound)")
	fs.IntVar(&d.Config.TenantQueueDepth, "tenant-queue", 0, "per-tenant queue capacity (0 = no per-tenant bound beyond -queue)")
	fs.Func("tenant-weights", `weighted-fair tenant shares, e.g. "team-a=3,team-b=1" (absent tenants weigh 1)`, func(s string) (err error) {
		d.Config.TenantWeights, err = service.ParseTenantWeights(s)
		return err
	})
	fs.Int64Var(&d.Config.MaxCycles, "max-cycles", 0, "default per-job deadlock guard in simulated cycles (0 = package default)")
	fs.StringVar(&d.CacheDir, "cache-dir", "", "persist compile caches under this directory (ptsimfleet: <dir>/m<i> per member)")
	return d
}

// drainTimeout bounds how long a stopping daemon waits for in-flight
// requests.
const drainTimeout = 10 * time.Second

// Serve listens on -addr, lets announce print the bound address, and
// serves h until SIGINT or SIGTERM. It then prints "<name>: <signal>,
// draining" and shuts the server down, letting in-flight requests finish
// for up to drainTimeout.
func (d *Daemon) Serve(name string, h http.Handler, announce func(net.Addr)) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	announce(ln.Addr())

	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("%s: %v, draining\n", name, s)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
