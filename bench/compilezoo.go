package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/compiler"
	"repro/internal/service/modelzoo"
)

// runCompileZoo is compile.zoo-cold: the op is graph build plus cold compile
// of every zoo spec, each with its own fresh compiler, so no kernel latency
// is shared.
func runCompileZoo(rc *runCtx) (*outcome, error) {
	cfg, err := modelzoo.NPUConfig(rc.prof.npu)
	if err != nil {
		return nil, err
	}
	o := &outcome{layer: map[string]float64{}}
	// Set-up is building the graphs and one untimed compile of the zoo, so
	// that the timed ops run in a process whose heap has already grown to
	// size; the compilers stay cold, each op makes its own.
	err = o.setupLoop(rc.prof.heavySetupReps, func(int) error {
		for _, spec := range rc.prof.zoo {
			g, err := modelzoo.BuildGraph(spec)
			if err != nil {
				return err
			}
			if _, err := compiler.New(cfg, compiler.DefaultOptions()).Compile(g); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ct := newCompileTrace(rc)
	// The artifact is a function of the spec, so the first op's artifacts
	// are fingerprinted, after the timed section.
	type artifact struct {
		comp *compiler.Compiled
		c    *compiler.Compiler
	}
	first := map[string]artifact{}
	o.timedLoop(rc.seconds, func(i int) error {
		req := fmt.Sprintf("op-%d", i)
		root := rc.tr.open(0, "op", req, time.Now())
		for _, spec := range rc.prof.zoo {
			sim, comp, err := ct.compile(cfg, spec, root, req)
			if err != nil {
				return err
			}
			if i == 0 {
				first[specLabel(spec)] = artifact{comp, sim.Compiler}
			}
		}
		rc.tr.setEnd(root, time.Now())
		return nil
	})
	for _, spec := range rc.prof.zoo {
		o.attempted++
		if a, ok := first[specLabel(spec)]; ok {
			check(rc.want, o, rc.want.CompileDigest, "compile", specLabel(spec), compileDigest(a.comp, a.c))
		}
	}
	if rc.traced() {
		// ct averaged per compile; the layer metrics are per op (per zoo).
		ct.into(o.layer)
		for k := range o.layer {
			o.layer[k] *= float64(len(rc.prof.zoo))
		}
	}
	return o, nil
}

func specLabel(s modelzoo.Spec) string {
	l := s.Model
	if s.N != 0 {
		l += fmt.Sprintf("/n%d", s.N)
	}
	if s.Batch != 0 {
		l += fmt.Sprintf("/b%d", s.Batch)
	}
	if s.Seq != 0 {
		l += fmt.Sprintf("/seq%d", s.Seq)
	}
	if s.Ctx != 0 {
		l += fmt.Sprintf("/ctx%d", s.Ctx)
	}
	if s.Prefill {
		l += "/prefill"
	}
	return l
}

// compileDigest fingerprints what a compile produced without serializing
// it: every TOG node's kind, loop bounds, latency and DMA tag, the measured
// kernel-latency table, the memory footprint and the measurement counters.
func compileDigest(comp *compiler.Compiled, c *compiler.Compiler) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %d %d\n", comp.Name, len(comp.TOGs), comp.TotalBytes)
	for _, g := range comp.TOGs {
		fmt.Fprintf(h, "%s %d\n", g.Name, g.SpadBytes)
		for i := range g.Nodes {
			n := &g.Nodes[i]
			fmt.Fprintf(h, "%s %d %d %d %d %s %d\n", n.Kind, n.Init, n.Limit, n.Step, n.Cycles, n.LatKey, n.Tag)
		}
	}
	lat := c.Latencies()
	sigs := make([]string, 0, len(lat))
	for s := range lat {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	for _, s := range sigs {
		fmt.Fprintf(h, "%s=%d\n", s, lat[s])
	}
	st := c.Stats()
	return fmt.Sprintf("%016x/togs%d/measured%d/lookups%d", h.Sum64(), len(comp.TOGs), st.MeasureCount, st.SigLookups)
}
