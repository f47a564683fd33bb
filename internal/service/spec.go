package service

import (
	"errors"
	"fmt"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/dataaware"
	"cnnsfi/internal/dataset"
	"cnnsfi/internal/inject"
	"cnnsfi/internal/models"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/oracle"
	"cnnsfi/internal/stats"
	"cnnsfi/internal/telemetry"
)

// ErrInvalidSpec wraps every spec-validation failure, so the HTTP layer
// can map the whole class to 400 with errors.Is.
var ErrInvalidSpec = errors.New("invalid campaign spec")

// CampaignSpec is the submitted description of one campaign — the JSON
// body of POST /api/v1/campaigns and the persisted identity of a job.
// It carries exactly the knobs sfirun exposes per campaign, so a spec
// run through sfid produces a Result bit-identical to the equivalent
// sfirun invocation: the plan is a pure function of (model, model_seed,
// substrate, oracle_seed/images, approach, margin, confidence), and the
// Result of (plan, run_seed) alone, at any worker count.
type CampaignSpec struct {
	// Name is an optional display label; it defaults to "model/approach".
	Name string `json:"name,omitempty"`
	// Model picks the weight generator: resnet20, mobilenetv2, smallcnn.
	Model string `json:"model"`
	// Substrate picks the evaluator: "oracle" (default) or "inference"
	// (smallcnn only).
	Substrate string `json:"substrate,omitempty"`
	// Approach is one of network-wise, layer-wise, data-unaware,
	// data-aware.
	Approach string `json:"approach"`
	// Margin is the requested error margin e in (0,1); default 0.01.
	Margin float64 `json:"margin,omitempty"`
	// Confidence is the confidence level in (0,1); default 0.99.
	Confidence float64 `json:"confidence,omitempty"`
	// ModelSeed generates the weights (default 1); OracleSeed labels the
	// ground truth (default 3); RunSeed draws the sample (default 0).
	ModelSeed  int64 `json:"model_seed,omitempty"`
	OracleSeed int64 `json:"oracle_seed,omitempty"`
	RunSeed    int64 `json:"run_seed,omitempty"`
	// Images sizes the inference substrate's evaluation set (default 8).
	Images int `json:"images,omitempty"`
	// Batch is accepted and ignored, kept for compatibility: every
	// faulted forward pass evaluates one image. It is still validated
	// (>= 0, and > 1 only on the inference substrate), so specs that
	// were rejected before are rejected now.
	Batch int `json:"batch,omitempty"`
	// Workers is the campaign's worker count (default 1), clamped to the
	// service's pool at submission. The job holds this many tokens of the
	// shared pool while running. It is not part of the job's identity:
	// the Result and checkpoints are the same at any worker count.
	Workers int `json:"workers,omitempty"`
	// Priority orders the queue: higher runs first; equal priorities run
	// FIFO. Default 0.
	Priority int `json:"priority,omitempty"`
	// ExperimentTimeoutMS arms the per-experiment watchdog (0 = off).
	ExperimentTimeoutMS int64 `json:"experiment_timeout_ms,omitempty"`
	// MaxRetries bounds retries per failing experiment before
	// quarantine. Omit to disable campaign supervision.
	MaxRetries *int `json:"max_retries,omitempty"`
	// Federated submits the campaign to the member fleet instead of the
	// local pool: a coordinator splits the plan into contiguous
	// per-stratum draw windows, runs one ranged job per live member, and
	// merges the partial Results in draw order — byte-identical to a
	// single-node run of the same (plan, seed). Requires a coordinator
	// (Config.Coordinator); Workers then sizes each member job, and the
	// federated job itself holds no local worker tokens.
	Federated bool `json:"federated,omitempty"`
	// Ranges restricts the campaign to the [from, to) draw window of
	// each stratum (one entry per plan stratum, in plan order). This is
	// how a coordinator ships one member's share of a federated plan; it
	// composes with checkpoints and resume like any other job. Mutually
	// exclusive with Federated.
	Ranges []core.DrawRange `json:"ranges,omitempty"`
	// FederatedJob / FederatedPart / FederatedMember correlate a ranged
	// member job back to the coordinator job it is one part of: the
	// coordinator stamps them when it ships a part, and the member daemon
	// opens the part's trace with a part_meta prologue carrying them, so
	// every line of the coordinator's merged trace can name its origin.
	// Only valid alongside Ranges. FederatedPart is a pointer so part 0
	// survives the omitempty encoding.
	FederatedJob    string `json:"federated_job,omitempty"`
	FederatedPart   *int   `json:"federated_part,omitempty"`
	FederatedMember string `json:"federated_member,omitempty"`
}

var approaches = map[string]bool{
	"network-wise": true, "layer-wise": true, "data-unaware": true, "data-aware": true,
}

// normalize fills defaults in place; the normalized spec is what gets
// persisted and reported back, so a job's identity is explicit on disk.
func (spec *CampaignSpec) normalize() {
	if spec.Substrate == "" {
		spec.Substrate = "oracle"
	}
	if spec.Margin == 0 {
		spec.Margin = 0.01
	}
	if spec.Confidence == 0 {
		spec.Confidence = 0.99
	}
	if spec.ModelSeed == 0 {
		spec.ModelSeed = 1
	}
	if spec.OracleSeed == 0 {
		spec.OracleSeed = 3
	}
	if spec.Images == 0 {
		spec.Images = 8
	}
	if spec.Workers <= 0 {
		spec.Workers = 1
	}
	if spec.Name == "" {
		spec.Name = spec.Model + "/" + spec.Approach
	}
}

// validate rejects a normalized spec with one actionable message; every
// failure wraps ErrInvalidSpec.
func (spec *CampaignSpec) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
	}
	known := false
	for _, n := range models.Names() {
		known = known || n == spec.Model
	}
	if !known {
		return bad("unknown model %q; available: %v", spec.Model, models.Names())
	}
	switch spec.Substrate {
	case "oracle":
	case "inference":
		if spec.Model != "smallcnn" {
			return bad("inference substrate is only feasible for model smallcnn")
		}
	default:
		return bad("unknown substrate %q; available: oracle, inference", spec.Substrate)
	}
	if !approaches[spec.Approach] {
		return bad("unknown approach %q; available: network-wise, layer-wise, data-unaware, data-aware", spec.Approach)
	}
	if spec.Margin <= 0 || spec.Margin >= 1 {
		return bad("margin must be inside (0,1) (got %v)", spec.Margin)
	}
	if spec.Confidence <= 0 || spec.Confidence >= 1 {
		return bad("confidence must be inside (0,1) (got %v)", spec.Confidence)
	}
	if spec.Images <= 0 {
		return bad("images must be > 0 (got %d)", spec.Images)
	}
	if spec.Batch < 0 {
		return bad("batch must be >= 0 (got %d); 0 disables batching", spec.Batch)
	}
	if spec.Batch > 1 && spec.Substrate != "inference" {
		return bad("batch needs the inference substrate; the oracle runs no forward passes to batch")
	}
	if spec.ExperimentTimeoutMS < 0 {
		return bad("experiment_timeout_ms must be >= 0 (got %d)", spec.ExperimentTimeoutMS)
	}
	if spec.MaxRetries != nil && *spec.MaxRetries < 0 {
		return bad("max_retries must be >= 0 (got %d); omit it to disable supervision", *spec.MaxRetries)
	}
	if spec.Federated && len(spec.Ranges) > 0 {
		return bad("federated and ranges are mutually exclusive; the coordinator assigns each member's ranges")
	}
	for i, r := range spec.Ranges {
		if r.From < 0 || r.From > r.To {
			return bad("ranges[%d] = [%d, %d) is not a valid draw window", i, r.From, r.To)
		}
	}
	if (spec.FederatedJob != "" || spec.FederatedPart != nil || spec.FederatedMember != "") && len(spec.Ranges) == 0 {
		return bad("federated_job/federated_part/federated_member only label a ranged part job; set ranges or omit them")
	}
	if spec.FederatedPart != nil && *spec.FederatedPart < 0 {
		return bad("federated_part must be >= 0 (got %d)", *spec.FederatedPart)
	}
	return nil
}

// EvaluatorBuilder constructs the evaluator a job runs against. The
// default builder mirrors sfirun's substrate selection; tests swap in
// instrumented evaluators through Config.BuildEvaluator.
type EvaluatorBuilder func(spec CampaignSpec, net *nn.Network) (core.Evaluator, error)

// DefaultEvaluator builds the substrate exactly as sfirun does: the
// full-scale oracle, or real forward-pass injection for smallcnn.
func DefaultEvaluator(spec CampaignSpec, net *nn.Network) (core.Evaluator, error) {
	switch spec.Substrate {
	case "oracle":
		return oracle.New(net, oracle.DefaultConfig(spec.OracleSeed)), nil
	case "inference":
		ds := dataset.Synthetic(dataset.Config{N: spec.Images, Seed: 1, Size: 16})
		return inject.New(net, ds), nil
	}
	return nil, fmt.Errorf("service: unknown substrate %q", spec.Substrate)
}

// buildCampaign materializes a spec into the (evaluator, plan) pair the
// engine runs. Plan construction matches sfirun line for line, which is
// what makes the bit-identity guarantee hold.
func buildCampaign(spec CampaignSpec, build EvaluatorBuilder) (core.Evaluator, *core.Plan, error) {
	net, err := models.Build(spec.Model, spec.ModelSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	ev, err := build(spec, net)
	if err != nil {
		return nil, nil, err
	}
	space := ev.Space()
	cfg := stats.DefaultConfig()
	cfg.ErrorMargin = spec.Margin
	cfg.Confidence = spec.Confidence
	var plan *core.Plan
	switch spec.Approach {
	case "network-wise":
		plan = core.PlanNetworkWise(space, cfg)
	case "layer-wise":
		plan = core.PlanLayerWise(space, cfg)
	case "data-unaware":
		plan = core.PlanDataUnaware(space, cfg)
	case "data-aware":
		plan = core.PlanDataAware(space, cfg, dataaware.AnalyzeFP32(net.AllWeights()).P)
	default:
		return nil, nil, fmt.Errorf("service: unknown approach %q", spec.Approach)
	}
	return ev, plan, nil
}

// plannedOf is the injection total a spec's run will cover: the full
// plan, or the sum of its draw windows for a ranged (member) job.
func plannedOf(spec CampaignSpec, plan *core.Plan) int64 {
	if len(spec.Ranges) == 0 {
		return plan.TotalInjections()
	}
	var n int64
	for _, r := range spec.Ranges {
		n += r.Len()
	}
	return n
}

// engineOptions assembles the per-job engine configuration from the
// spec and the service-level knobs. Only observational options differ
// from a plain sfirun invocation; everything that affects the Result
// (workers, plan, seed) comes from the spec alone. tr, when non-nil, is
// the job's on-disk tracer; its sinks are composed in front of the SSE
// sinks and label events with the spec name (the trace identity sfirun
// would use), while SSE frames stay labeled by job ID.
func (s *Service) engineOptions(j *job, tr *telemetry.Tracer) []core.Option {
	spec := j.spec
	progress := s.progressSink(j)
	trace := s.traceSink(j)
	if tr != nil {
		tp, ts := tr.Progress(spec.Name), tr.Sink(spec.Name)
		sseProgress, sseTrace := progress, trace
		progress = func(p core.Progress) { tp(p); sseProgress(p) }
		trace = func(ev core.TraceEvent) { ts(ev); sseTrace(ev) }
	}
	opts := []core.Option{
		core.WithWorkers(spec.Workers),
		core.WithCheckpoint(s.checkpointPath(j.id)),
		core.WithResume(), // resume-or-start is idempotent: a missing file starts fresh
		core.WithWarnings(func(msg string) { s.warnf("job %s: %s", j.id, msg) }),
		core.WithProgress(progress),
		core.WithTrace(trace),
	}
	if spec.ExperimentTimeoutMS > 0 {
		opts = append(opts, core.WithExperimentTimeout(time.Duration(spec.ExperimentTimeoutMS)*time.Millisecond))
	}
	if spec.MaxRetries != nil {
		opts = append(opts, core.WithMaxRetries(*spec.MaxRetries))
	}
	if len(spec.Ranges) > 0 {
		opts = append(opts, core.WithDrawRanges(spec.Ranges))
	}
	return opts
}
