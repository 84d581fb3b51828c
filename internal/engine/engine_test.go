package engine

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"racesim/internal/sim"
	"racesim/internal/simcache"
)

func TestJobCheck(t *testing.T) {
	cases := []struct {
		name string
		job  Job
		ok   bool
	}{
		{"run", Job{Kind: KindRun, Run: &RunJob{Ubench: "MD"}}, true},
		{"no kind", Job{}, false},
		{"unknown kind", Job{Kind: "tune"}, false},
		{"two specs", Job{Kind: KindRun, Run: &RunJob{}, Ubench: &UbenchJob{}}, false},
		{"kind without spec", Job{Kind: KindUbench}, true}, // spec is optional; defaults apply
		// A spec that does not match the kind must fail loudly: otherwise
		// the mislabeled spec is silently ignored and the kind runs on its
		// zero-value defaults (for experiments, the full paper sweep).
		{"mislabeled spec", Job{Kind: KindExperiments, Run: &RunJob{Ubench: "MD"}}, false},
		{"mislabeled spec 2", Job{Kind: KindRun, Validate: &ValidateJob{}}, false},
	}
	for _, tc := range cases {
		if err := tc.job.Check(); (err == nil) != tc.ok {
			t.Errorf("%s: Check() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestRunJobSingleTrace(t *testing.T) {
	job := Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}}
	res, err := Execute(job, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"config:        public-a53", "cycles:", "CPI:", "L1D miss rate:"} {
		if !strings.Contains(res.Artifact, want) {
			t.Errorf("artifact missing %q:\n%s", want, res.Artifact)
		}
	}
	if res.Kind != KindRun {
		t.Errorf("result kind %q", res.Kind)
	}
}

func TestRunJobBatchDeterministicAcrossCacheWarmth(t *testing.T) {
	cache := simcache.New()
	job := Job{Kind: KindRun, Run: &RunJob{Ubench: "MD,CS1,MIP", Scale: 0.002}}
	cold, err := Execute(job, Options{Cache: cache, Parallelism: 3, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Execute(job, Options{Cache: cache, Parallelism: 1, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Artifact != warm.Artifact {
		t.Errorf("artifact changed with cache warmth/parallelism:\ncold:\n%s\nwarm:\n%s", cold.Artifact, warm.Artifact)
	}
	st := warm.CacheStats
	if st.Misses != 3 || st.Hits < 3 {
		t.Errorf("warm rerun should be pure hits: %+v", st)
	}
}

func TestRunJobInlineConfigJSON(t *testing.T) {
	cfg := sim.PublicA72()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(Job{Kind: KindRun, Run: &RunJob{ConfigJSON: data, Ubench: "MD", Scale: 0.002}}, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Artifact, cfg.Name) {
		t.Errorf("artifact does not name the inline config %q:\n%s", cfg.Name, res.Artifact)
	}
	// A config that fails validation is rejected before simulating.
	bad := cfg
	bad.Kind = "neither-core-kind"
	data, _ = json.Marshal(bad)
	if _, err := Execute(Job{Kind: KindRun, Run: &RunJob{ConfigJSON: data, Ubench: "MD"}}, Options{}); err == nil {
		t.Error("invalid inline config accepted")
	}
}

func TestRunJobSnapshotLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	job := Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}}
	if _, err := Execute(job, Options{CachePath: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	res, err := Execute(job, Options{CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.CacheStats; st.Hits != 1 || st.Misses != 0 {
		t.Errorf("second run should answer from the snapshot: %+v", st)
	}
}

func TestExperimentsJobMatchesListing(t *testing.T) {
	res, err := Execute(Job{Kind: KindExperiments, Experiments: &ExperimentsJob{ListScenarios: true}}, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "fig8", "transfer-a53-to-a72", "'all' selects the paper set"} {
		if !strings.Contains(res.Artifact, want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

func TestExperimentsJobArtifact(t *testing.T) {
	job := Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
		Scenario: "table1,table2", Scale: 0.002, Events: 4000, Quiet: true,
	}}
	a, err := Execute(job, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Artifact, "## table1 — Micro-benchmark suite") ||
		!strings.Contains(a.Artifact, "## table2 — SPEC CPU2017 region workloads") {
		t.Fatalf("unexpected artifact:\n%s", a.Artifact)
	}
	// Same job on a different engine invocation renders identical bytes.
	b, err := Execute(job, Options{Parallelism: 2, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Artifact != b.Artifact {
		t.Error("experiments artifact differs across engine invocations")
	}
}

func TestExperimentsJobRejectsResumeOnSharedCache(t *testing.T) {
	_, err := Execute(
		Job{Kind: KindExperiments, Experiments: &ExperimentsJob{Scenario: "table1", Resume: true}},
		Options{Cache: simcache.New()})
	if err == nil || !strings.Contains(err.Error(), "shared-cache") {
		t.Errorf("want shared-cache resume rejection, got %v", err)
	}
}

func TestExperimentsJobSelectorConflict(t *testing.T) {
	_, err := Execute(Job{Kind: KindExperiments, Experiments: &ExperimentsJob{Run: "fig4", Scenario: "fig5"}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "same selector") {
		t.Errorf("want selector-conflict error, got %v", err)
	}
}

func TestUbenchJobList(t *testing.T) {
	res, err := Execute(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}}, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Artifact, "MD") || !strings.Contains(res.Artifact, "category") {
		t.Errorf("suite listing looks wrong:\n%s", res.Artifact)
	}
}

func TestUbenchJobRequiresAction(t *testing.T) {
	if _, err := Execute(Job{Kind: KindUbench}, Options{}); err == nil {
		t.Error("ubench job without an action should fail")
	}
}

func TestUbenchJobRejectsUnknownCore(t *testing.T) {
	_, err := Execute(Job{Kind: KindUbench, Ubench: &UbenchJob{Compare: "MD", Core: "a57"}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown core") {
		t.Errorf("typo'd core must error, not silently compare against the A53: %v", err)
	}
}

func TestValidateJobTunedConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation pipeline")
	}
	out := filepath.Join(t.TempDir(), "tuned.json")
	res, err := Execute(Job{Kind: KindValidate, Validate: &ValidateJob{
		Core: "a53", Budget1: 200, Budget2: 200, Scale: 0.001, Quiet: true, OutPath: out,
	}}, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TunedConfig) == 0 {
		t.Fatal("validate result carries no tuned config")
	}
	var cfg sim.Config
	if err := json.Unmarshal(res.TunedConfig, &cfg); err != nil {
		t.Fatalf("tuned config does not parse: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("tuned config invalid: %v", err)
	}
	// OutPath wrote the identical bytes.
	disk, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(disk) != string(res.TunedConfig) {
		t.Error("OutPath bytes differ from Result.TunedConfig")
	}
	if !strings.Contains(res.Artifact, "per-category error of the final model") {
		t.Errorf("artifact missing the stage report:\n%s", res.Artifact)
	}
}

func TestExecuteContextCancelsMidSweep(t *testing.T) {
	// Cancel shortly after a multi-unit sweep starts: execution must stop
	// at the next unit/stage boundary with the context's error, well
	// before the sweep could have finished.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ExecuteContext(ctx, Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
		Scenario: "table1,table2,fig2", Scale: 0.002, Events: 4000,
		Budget1: 250, Budget2: 250, Quiet: true,
	}}, Options{Parallelism: 2, Capture: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled sweep error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v; context is not threaded into the sweep", elapsed)
	}
}

func TestExecutePreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExecuteContext(ctx, Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}}, Options{Capture: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled job error = %v, want context.Canceled", err)
	}
	if res.Artifact != "" {
		t.Errorf("pre-cancelled job produced output: %q", res.Artifact)
	}
}

// workLine is the stderr summary of a job's synthesis and board work.
var workLine = regexp.MustCompile(`(?m)^synthesis: [0-9]+ emulated, [0-9]+ reused; board: [0-9]+ simulated, [0-9]+ reused$`)

// TestJobsReportWorkOnStderr: experiments and validate jobs report their
// synthesis and board-measurement reuse on stderr, never in the
// artifact, and quiet jobs do not report it at all.
func TestJobsReportWorkOnStderr(t *testing.T) {
	jobs := []Job{
		{Kind: KindExperiments, Experiments: &ExperimentsJob{Scenario: "table1,table2", Scale: 0.0005, Events: 1000}},
	}
	if !testing.Short() {
		jobs = append(jobs, Job{Kind: KindValidate, Validate: &ValidateJob{Core: "a53", Budget1: 40, Budget2: 40, Scale: 0.0005}})
	}
	for _, job := range jobs {
		loud, err := Execute(job, Options{Capture: true})
		if err != nil {
			t.Fatal(err)
		}
		if !workLine.MatchString(loud.Log) {
			t.Errorf("%s: stderr has no work line:\n%s", job.Kind, loud.Log)
		}
		if strings.Contains(loud.Artifact, "synthesis:") {
			t.Errorf("%s: the work line reached the artifact", job.Kind)
		}
		if job.Experiments != nil {
			job.Experiments.Quiet = true
		} else {
			job.Validate.Quiet = true
		}
		quiet, err := Execute(job, Options{Capture: true})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(quiet.Log, "synthesis:") {
			t.Errorf("%s: a quiet job printed the work line:\n%s", job.Kind, quiet.Log)
		}
	}
}
