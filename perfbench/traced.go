package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"racesim/internal/expt"
	"racesim/internal/simcache"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// traceOverhead records how much slower the traced pass ran than the
// median untraced pass of the same run on the same seed.
func traceOverhead(r *run, traced time.Duration) {
	r.layer["trace_overhead_pct"] = 100 * (traced.Seconds() - r.ownWall) / r.ownWall
}

// tracePaper drives the selection experiment by experiment through
// expt.Context.ByID under spans, recording each experiment's simcache
// delta, checks the concatenated artifact against the reference, and then
// runs the layer probes on the workload's own traces and tuned configs.
// With warm set the pass opens and saves the snapshot at snap, as a
// re-run does.
func tracePaper(r *run, ref string, warm bool, snap string) error {
	tr := r.tracer
	root := tr.Begin(0, "pass")
	start := time.Now()
	cache := simcache.New()
	if warm {
		sp := tr.Begin(root, "snapshot.open")
		t0 := time.Now()
		n, rejected, err := cache.LoadChecked(snap)
		if err != nil {
			return fmt.Errorf("traced pass: open snapshot: %w", err)
		}
		r.layer["snapshot.open_s"] = time.Since(t0).Seconds()
		r.layer["snapshot.entries"] = float64(n)
		r.check(rejected == 0, "traced pass: snapshot rejected %d entries", rejected)
		tr.End(sp, map[string]any{"entries": n})
	}
	sp := tr.Begin(root, "expt.NewContext")
	c, err := expt.NewContext(paperOptions(r.seed, r.par, cache))
	if err != nil {
		return err
	}
	tr.End(sp, nil)
	var b strings.Builder
	misses := map[string]int64{}
	for _, id := range expt.IDs() {
		fn, _ := c.ByID(id)
		before := cache.Stats()
		sp := tr.Begin(root, "expt."+id)
		e, err := fn()
		if err != nil {
			return fmt.Errorf("traced pass: %s: %w", id, err)
		}
		after := cache.Stats()
		tr.End(sp, map[string]any{
			"hits": after.Hits - before.Hits, "misses": after.Misses - before.Misses,
			"shared": after.Shared - before.Shared, "remote_hits": after.RemoteHits - before.RemoteHits,
		})
		misses[id] = int64(after.Misses - before.Misses)
		b.WriteString(e.Render())
		b.WriteByte('\n') // the separator scenario.RenderAll writes
	}
	if warm {
		sp := tr.Begin(root, "snapshot.save")
		t0 := time.Now()
		if err := cache.SaveFile(snap); err != nil {
			return fmt.Errorf("traced pass: save snapshot: %w", err)
		}
		r.layer["snapshot.save_s"] = time.Since(t0).Seconds()
		tr.End(sp, nil)
	}
	tr.End(root, nil)
	traceOverhead(r, time.Since(start))
	art := b.String()
	r.check(art == ref, "traced pass: artifact %s differs from the reference %s", digest(art), digest(ref))
	r.repeatCounts(map[bool]string{false: "traced-cold", true: "traced-warm"}[warm], misses)

	self := SelfTimes(tr.Spans())
	for _, s := range tr.Spans() {
		if strings.HasPrefix(s.Name, "expt.") && s.Parent == root && s.Name != "expt.NewContext" {
			r.layer[s.Name+".s"] = self[s.ID].Seconds()
		}
	}
	simcacheLayer(r, cache.Stats())
	if !warm {
		if err := snapshotProbe(r, root, cache); err != nil {
			return err
		}
	} else if fi, err := os.Stat(snap); err == nil {
		r.layer["snapshot.bytes"] = float64(fi.Size())
	}

	in, err := paperProbeInput(r, c)
	if err != nil {
		return err
	}
	return runProbes(r, in)
}

// traceSweep times one more sweep pass under spans — the tier start,
// the cluster.Run call and the drain — fills the cluster and simcache
// layer metrics from it, and runs the layer probes on the selection's
// traces and tuned configs, tuned in process.
func traceSweep(r *run, ref string, passes int) error {
	tr := r.tracer
	root := tr.Begin(0, "pass")
	o, err := sweepPass(r, passes, r.seed, tr, root)
	if err != nil {
		return err
	}
	tr.End(root, nil)
	r.check(o.artifact == ref, "traced sweep: artifact %s differs from the reference %s", digest(o.artifact), digest(ref))
	traceOverhead(r, o.sample.wall)
	clusterLayer(r, o, 2)

	cache := simcache.New()
	c, err := expt.NewContext(paperOptions(r.seed, r.par, cache))
	if err != nil {
		return err
	}
	in, err := paperProbeInput(r, c)
	if err != nil {
		return err
	}
	if err := snapshotProbe(r, root, cache); err != nil {
		return err
	}
	return runProbes(r, in)
}

// paperProbeInput builds the probe input of a paper workload: the
// selection's traces, and lane groups made of each core's validation
// stage configs (public, first tuning, final tuning).
func paperProbeInput(r *run, c *expt.Context) (probeInput, error) {
	a53, err := c.StagesA53()
	if err != nil {
		return probeInput{}, err
	}
	a72, err := c.StagesA72()
	if err != nil {
		return probeInput{}, err
	}
	in := probeInput{
		benches:  ubench.Suite(),
		ubOpts:   ubench.Options{Scale: paperScale},
		profiles: workload.Profiles(),
		wlOpts:   workload.Options{Events: paperEvents, Seed: r.seed},
		plat:     c.Platform(),
		tuneBase: a53[0].Config, perturbBase: a53[len(a53)-1].Config,
		budget: paperBudget1, seed: r.seed,
	}
	for _, s := range a53 {
		in.inorder = append(in.inorder, s.Config)
	}
	for _, s := range a72 {
		in.ooo = append(in.ooo, s.Config)
	}
	return in, nil
}
