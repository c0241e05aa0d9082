package cli

import (
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/npu"
	"repro/internal/service"
	"repro/internal/togsim"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// The job flags fill a JobSpec with the service's own defaults, and a bad
// value fails in the service's resolver with its own message.
func TestBindJob(t *testing.T) {
	_, _, badNet := service.ResolveMachine("tpuv3", "xyz")
	for _, tc := range []struct {
		name    string
		args    []string
		want    service.JobSpec
		wantErr string
	}{
		{"defaults", nil,
			service.JobSpec{Model: "gemm", Topology: "single", Parallel: "none", NPU: "tpuv3", Net: "sn"}, ""},
		{"small", []string{"-small"},
			service.JobSpec{Model: "gemm", Topology: "single", Parallel: "none", NPU: "small", Net: "sn"}, ""},
		{"every flag", []string{"-model", "decoder-tiny", "-topology", "pkg2", "-parallel", "tensor", "-net", "cn", "-max-cycles", "9", "-cache-dir", "d"},
			service.JobSpec{Model: "decoder-tiny", Topology: "pkg2", Parallel: "tensor", NPU: "tpuv3", Net: "cn", MaxCycles: 9}, ""},
		{"bad net", []string{"-net", "xyz"},
			service.JobSpec{Model: "gemm", Topology: "single", Parallel: "none", NPU: "tpuv3", Net: "xyz"}, badNet.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFlagSet()
			j := BindJob(fs, "gemm")
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			if got := j.Spec(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Spec() = %+v, want %+v", got, tc.want)
			}
			_, specErr := j.Spec().Resolve()
			_, _, machineErr := j.Resolve()
			if tc.wantErr == "" {
				if specErr != nil || machineErr != nil {
					t.Fatalf("resolve: %v / %v", specErr, machineErr)
				}
				return
			}
			if specErr == nil || specErr.Error() != tc.wantErr || machineErr == nil || machineErr.Error() != tc.wantErr {
				t.Fatalf("resolve errors %v / %v, want %q from both", specErr, machineErr, tc.wantErr)
			}
		})
	}
}

// -small picks the preset by name and -net the interconnect, both through
// the service resolver.
func TestBindMachine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		cfg  npu.Config
		net  togsim.NetKind
	}{
		{nil, npu.TPUv3Config(), togsim.SimpleNet},
		{[]string{"-small"}, npu.SmallConfig(), togsim.SimpleNet},
		{[]string{"-small", "-net", "cn"}, npu.SmallConfig(), togsim.CycleNet},
	} {
		fs := newFlagSet()
		m := BindMachine(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		cfg, net, err := m.Resolve()
		if err != nil || !reflect.DeepEqual(cfg, tc.cfg) || net != tc.net {
			t.Fatalf("%v: Resolve() = %s, %v, %v", tc.args, cfg.Name, net, err)
		}
	}
}

// ptsimd and ptsimfleet bind the same daemon flags with their own -addr and
// -workers defaults, and reject a malformed -tenant-weights identically.
func TestBindDaemon(t *testing.T) {
	for _, tc := range []struct {
		addr    string
		workers int
	}{{"127.0.0.1:8726", 0}, {"127.0.0.1:8730", 2}} {
		fs := newFlagSet()
		d := BindDaemon(fs, tc.addr, tc.workers)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		want := service.Config{Workers: tc.workers, QueueDepth: 64}
		if d.Addr != tc.addr || d.CacheDir != "" || !reflect.DeepEqual(d.Config, want) {
			t.Fatalf("defaults: %+v, want addr %s and %+v", d, tc.addr, want)
		}

		fs = newFlagSet()
		d = BindDaemon(fs, tc.addr, tc.workers)
		if err := fs.Parse([]string{"-tenant-weights", "a=3,b=1", "-queue", "8", "-tenant-queue", "2", "-max-cycles", "5"}); err != nil {
			t.Fatal(err)
		}
		want = service.Config{Workers: tc.workers, QueueDepth: 8, TenantQueueDepth: 2, MaxCycles: 5,
			TenantWeights: map[string]int{"a": 3, "b": 1}}
		if !reflect.DeepEqual(d.Config, want) {
			t.Fatalf("flags: %+v, want %+v", d.Config, want)
		}
	}

	var errs []string
	for _, workers := range []int{0, 2} {
		fs := newFlagSet()
		BindDaemon(fs, "127.0.0.1:0", workers)
		err := fs.Parse([]string{"-tenant-weights", "a=x"})
		if err == nil {
			t.Fatal("malformed -tenant-weights accepted")
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] || !strings.Contains(errs[0], `weight "x" must be a positive integer`) {
		t.Fatalf("malformed -tenant-weights errors differ or miss the parser's message: %q", errs)
	}
}

// Without -trace the probe is a nil interface, so nothing is recorded or
// written; with it, one recorder serves the run and lands in the file.
func TestOutput(t *testing.T) {
	fs := newFlagSet()
	o := BindOutput(fs, "run")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.Probe() != nil || o.Log() != os.Stdout {
		t.Fatal("want no probe and progress on stdout by default")
	}
	if err := o.WriteTrace(io.Discard); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.trace.json")
	fs = newFlagSet()
	o = BindOutput(fs, "run")
	if err := fs.Parse([]string{"-json", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	if o.Log() != os.Stderr {
		t.Fatal("-json must move progress lines to stderr")
	}
	p := o.Probe()
	if p == nil || p != o.Probe() {
		t.Fatal("want one recorder for the whole run")
	}
	var line strings.Builder
	if err := o.WriteTrace(&line); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil || !strings.HasPrefix(line.String(), "wrote trace (") {
		t.Fatalf("trace file %v, line %q", err, line.String())
	}
}

// SIGTERM drains: the listener closes at once, but a request already in
// flight still gets its response, and Serve returns cleanly.
func TestServeDrainsInFlightRequests(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "done")
	})
	d := &Daemon{Addr: "127.0.0.1:0"}
	addrc, served := make(chan string, 1), make(chan error, 1)
	go func() { served <- d.Serve("test", h, func(a net.Addr) { addrc <- a.String() }) }()
	addr := <-addrc

	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			body <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()
	<-started
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Shutdown closes the listener first; wait for that, so the request
	// below is answered during the drain and not before it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still open after SIGTERM")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)
	if got := <-body; got != "done" {
		t.Fatalf("in-flight request got %q, want its response", got)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
