// Package sfi is the public API of the statistical fault injection (SFI)
// library, a reproduction of "Assessing Convolutional Neural Networks
// Reliability through Statistical Fault Injections" (Ruospo et al.,
// DATE 2023).
//
// The typical workflow:
//
//	net, _ := sfi.BuildModel("resnet20", 1)
//	analysis := sfi.AnalyzeWeights(net.AllWeights())      // Figs. 3-4
//	cfg := sfi.DefaultConfig()                            // e=1%, 99%, t=2.58
//	space := sfi.StuckAtSpace(net)                        // 17.2M faults
//	plan := sfi.PlanDataAware(space, cfg, analysis.P)     // Table I column
//	oracle := sfi.NewOracle(net, sfi.OracleDefaults(3))   // ground truth
//	result := sfi.RunParallel(oracle, plan, 0, 0)         // all cores
//	estimate := result.LayerEstimate(14)                  // p̂ ± margin
//
// For inference-based injection on a real (small) network, replace the
// oracle with sfi.NewInjector(net, dataset). Both satisfy Evaluator,
// and both run under RunParallel with one clone per worker
// (WorkerCloner): the injector clones its network weights, the oracle
// shares its read-only model and gives each clone its own experiment
// counters. Run and RunParallel are deterministic in the seed — the
// same seed yields a bit-identical Result at any worker count — so
// parallelism never changes the statistics.
//
// Both are thin wrappers over the campaign Engine, which adds the
// operational controls long campaigns need: context cancellation and
// deadlines, streaming progress events, checkpoint/resume (an
// interrupted campaign resumes bit-identically at the same seed), and
// margin-based early stop:
//
//	eng := sfi.NewEngine(
//		sfi.WithWorkers(0),                   // all cores
//		sfi.WithProgress(printProgress),      // streaming events
//		sfi.WithCheckpoint("run.ckpt"),       // periodic + on-cancel
//		sfi.WithResume(),                     // continue if run.ckpt exists
//		sfi.WithEarlyStop(0),                 // stop strata at achieved e
//	)
//	result, err := eng.Execute(ctx, oracle, plan, 0)
//
// Everything here is a thin re-export of the internal packages; see
// DESIGN.md for the package inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package sfi

import (
	"io"
	"net/http"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/dataaware"
	"cnnsfi/internal/dataset"
	"cnnsfi/internal/evalstats"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/fp"
	"cnnsfi/internal/inject"
	"cnnsfi/internal/models"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/oracle"
	"cnnsfi/internal/quantize"
	"cnnsfi/internal/reliability"
	"cnnsfi/internal/service"
	"cnnsfi/internal/stats"
	"cnnsfi/internal/train"
)

// Core methodology types.
type (
	// Network is a CNN with injectable weight layers.
	Network = nn.Network
	// Dataset is a labeled image set.
	Dataset = dataset.Dataset
	// DatasetConfig parameterizes the synthetic dataset generator.
	DatasetConfig = dataset.Config
	// Fault addresses one stuck-at or bit-flip fault.
	Fault = faultmodel.Fault
	// FaultSpace is a fault universe with subpopulation indexing.
	FaultSpace = faultmodel.Space
	// Config carries the Eq. 1 parameters (error margin, confidence, p).
	Config = stats.SampleSizeConfig
	// Plan is a campaign specification (the content of Tables I-II).
	Plan = core.Plan
	// Subpopulation is one stratum of a plan.
	Subpopulation = core.Subpopulation
	// Result is an executed campaign.
	Result = core.Result
	// Comparison judges a result against exhaustive ground truth
	// (Table III, Figs. 5-7).
	Comparison = core.Comparison
	// LayerComparison is one layer's row of a Comparison.
	LayerComparison = core.LayerComparison
	// Approach is one of the four SFI strategies.
	Approach = core.Approach
	// Evaluator classifies faults (inference-based or simulated).
	Evaluator = core.Evaluator
	// WorkerCloner is an Evaluator that supplies per-worker clones for
	// RunParallel (implemented by Injector and Oracle; the
	// ActivationInjector is concurrency-safe without cloning).
	WorkerCloner = core.WorkerCloner
	// Injector is the inference-based evaluator (PyTorchFI equivalent).
	Injector = inject.Injector
	// Oracle is the full-scale simulated evaluator.
	Oracle = oracle.Oracle
	// OracleConfig tunes the oracle's criticality surface.
	OracleConfig = oracle.Config
	// Analysis is a data-aware weight-distribution analysis (Figs. 3-4).
	Analysis = dataaware.Analysis
	// Estimate is a proportion estimate with finite-population margins.
	Estimate = stats.ProportionEstimate
	// StratifiedEstimate combines per-stratum estimates with the correct
	// stratified margin (what LayerEstimate and NetworkEstimate return).
	StratifiedEstimate = stats.Stratified
	// Trainer runs SGD on a sequential network.
	Trainer = train.Trainer
	// ActivationInjector injects transient bit-flips on activations.
	ActivationInjector = inject.ActivationInjector
	// INT8Analysis is the data-aware analysis of INT8-quantized weights.
	INT8Analysis = quantize.Analysis
	// PerLayerAnalysis holds one data-aware analysis per weight layer.
	PerLayerAnalysis = dataaware.PerLayer
	// LayerRank is one entry of a per-layer vulnerability ranking.
	LayerRank = core.LayerRank
	// BitRank is one entry of a per-bit vulnerability ranking.
	BitRank = core.BitRank
	// SERConfig is the raw soft-error assumption (FIT per memory bit).
	SERConfig = reliability.SERConfig
	// ReliabilityReport is the SDC FIT assessment of a campaign result.
	ReliabilityReport = reliability.Report
	// Protection is a selective bit-protection scenario.
	Protection = reliability.Protection
	// Format is a floating-point representation (FP32/FP16/BF16).
	Format = fp.Format
	// Engine is the unified campaign executor behind Run/RunParallel,
	// with cancellation, progress streaming, checkpoint/resume, and
	// margin-based early stop (see NewEngine and the With* options).
	Engine = core.Engine
	// EngineOption configures an Engine (functional options).
	EngineOption = core.Option
	// Progress is one streaming status event of a running campaign.
	Progress = core.Progress
	// ProgressSink consumes streaming Progress events.
	ProgressSink = core.ProgressSink
	// EvalStats breaks down how an evaluator resolved a campaign's
	// experiments: masked-fault skips (classified Non-critical with no
	// inference), full evaluations, SDC early exits, and the scratch
	// arena bytes retained by the allocation-free hot path. Surfaced
	// per campaign in Progress.Eval and cumulatively via the
	// StatsReporter interface.
	EvalStats = core.EvalStats
	// StatsReporter is implemented by evaluators that track EvalStats
	// (both the inference Injector and the Oracle do).
	StatsReporter = core.StatsReporter
	// TraceEvent is one structured engine event (campaign/stratum/shard
	// lifecycle, early stops, checkpoints); see WithTrace.
	TraceEvent = core.TraceEvent
	// TraceKind discriminates TraceEvents.
	TraceKind = core.TraceKind
	// TraceSink consumes structured engine events; the
	// internal/telemetry Tracer records them as JSONL.
	TraceSink = core.TraceSink
	// LatencyHistogram is the lock-free power-of-two histogram
	// evaluators feed through the LatencySampler seam.
	LatencyHistogram = evalstats.Histogram
	// LatencySampler is implemented by evaluators that can time
	// individual experiments (both the Injector and the Oracle do).
	LatencySampler = evalstats.LatencySampler
	// ExperimentError is the typed failure a supervised campaign records
	// for one experiment attempt: the fault identity plus either the
	// recovered panic (with stack) or a watchdog timeout.
	ExperimentError = core.ExperimentError
	// QuarantinedFault is one draw a supervised campaign excluded from
	// the tally after exhausting its retry budget (Result.Quarantined).
	QuarantinedFault = core.QuarantinedFault
	// DrawRange selects the contiguous [From, To) draw positions of one
	// stratum's sample — the unit federated campaigns shard a plan by
	// (see WithDrawRanges, SplitPlan, MergeRangeResults).
	DrawRange = core.DrawRange
)

// The four SFI approaches, in the paper's order.
const (
	NetworkWise = core.NetworkWise
	LayerWise   = core.LayerWise
	DataUnaware = core.DataUnaware
	DataAware   = core.DataAware
)

// Checkpoint failure sentinels: Engine.Execute wraps every checkpoint
// rejection around one of these, so callers can dispatch with errors.Is
// and print targeted guidance (cmd/sfirun does). Corruption of the
// primary checkpoint is recovered automatically from the rotated .bak
// backup when possible; the mismatch sentinels mean the checkpoint
// belongs to a different campaign.
var (
	ErrCheckpointCorrupt = core.ErrCheckpointCorrupt
	ErrCheckpointVersion = core.ErrCheckpointVersion
	ErrCheckpointSeed    = core.ErrCheckpointSeed
	ErrCheckpointPlan    = core.ErrCheckpointPlan
	ErrCheckpointWorkers = core.ErrCheckpointWorkers
	ErrCheckpointRange   = core.ErrCheckpointRange
)

// WithDrawRanges restricts an Engine to the [From, To) draw window of
// each stratum (one DrawRange per stratum, in plan order); the sample is
// still drawn in full, so draw j of stratum i names the same fault on
// every member of a federated campaign.
func WithDrawRanges(ranges []DrawRange) EngineOption { return core.WithDrawRanges(ranges) }

// SplitPlan cuts every stratum of a plan into n contiguous draw windows
// (sizes differing by at most one draw), one WithDrawRanges vector per
// part.
func SplitPlan(plan *Plan, n int) ([][]DrawRange, error) { return core.SplitPlan(plan, n) }

// MergeRangeResults folds shard-range Results back into the
// full-campaign Result, strictly in draw order; the merge is
// byte-identical to a single-node run of the same (plan, seed).
func MergeRangeResults(plan *Plan, parts []*Result) (*Result, error) {
	return core.MergeRangeResults(plan, parts)
}

// CheckpointInfo is the engine-independent summary of a checkpoint
// file (schema version, seed, plan fingerprint, writing worker count,
// restored injection prefix); ReadCheckpointInfo reads one following
// the engine's corrupt-primary → .bak recovery ladder. The sfid service
// reports per-job recovery state through it.
type CheckpointInfo = core.CheckpointInfo

// ReadCheckpointInfo reads and CRC-verifies the checkpoint at path.
func ReadCheckpointInfo(path string) (CheckpointInfo, error) {
	return core.ReadCheckpointInfo(path)
}

// Campaign service layer (the sfid daemon and sfictl client are built
// on these; see docs/API.md and docs/OPERATIONS.md).
type (
	// ServiceConfig parameterises a campaign Service.
	ServiceConfig = service.Config
	// Service schedules many campaigns against one shared worker pool
	// with FIFO fairness, priorities, and queue backpressure.
	Service = service.Service
	// CampaignSpec is the submitted description of one campaign job.
	CampaignSpec = service.CampaignSpec
	// JobStatus is the externally visible snapshot of one job.
	JobStatus = service.JobStatus
	// JobState is one node of the job lifecycle state machine.
	JobState = service.JobState
	// ServiceRoute documents one HTTP endpoint of the sfid API.
	ServiceRoute = service.Route
)

// NewService opens the state directory, recovers persisted jobs, and
// starts scheduling.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// ServiceMux builds the sfid HTTP handler over a Service.
func ServiceMux(s *Service) *http.ServeMux { return service.NewMux(s) }

// ServiceRoutes returns the full sfid endpoint table.
func ServiceRoutes() []ServiceRoute { return service.Routes() }

// Floating-point formats for the data-aware analysis.
var (
	// FP32 is IEEE-754 binary32, the paper's representation.
	FP32 = fp.FP32
	// FP16 is IEEE-754 binary16 (future-work extension).
	FP16 = fp.FP16
	// BF16 is bfloat16 (future-work extension).
	BF16 = fp.BF16
)

// BuildModel constructs a registered CNN ("resnet20", "mobilenetv2", or
// "smallcnn") with deterministic pretrained-like weights.
func BuildModel(name string, seed int64) (*Network, error) { return models.Build(name, seed) }

// ModelNames lists the registered model names.
func ModelNames() []string { return models.Names() }

// SyntheticDataset generates the CIFAR-10-like synthetic workload.
func SyntheticDataset(cfg DatasetConfig) *Dataset { return dataset.Synthetic(cfg) }

// DefaultConfig returns the paper's evaluation configuration: e = 1%,
// 99% confidence (t = 2.58), p = 0.5, round-to-nearest.
func DefaultConfig() Config { return stats.DefaultConfig() }

// StuckAtSpace returns the network's permanent stuck-at fault universe
// (every bit of every conv/linear weight, stuck-at-0 and stuck-at-1).
func StuckAtSpace(net *Network) FaultSpace {
	return faultmodel.NewStuckAt(net.LayerParamCounts(), fp.Bits32)
}

// BitFlipSpace returns the transient single-bit-flip universe.
func BitFlipSpace(net *Network) FaultSpace {
	return faultmodel.NewBitFlip(net.LayerParamCounts(), fp.Bits32)
}

// AnalyzeWeights runs the data-aware analysis (Eqs. 4-5) on FP32 weights.
func AnalyzeWeights(weights []float32) *Analysis { return dataaware.AnalyzeFP32(weights) }

// AnalyzeWeightsIn runs the data-aware analysis in another representation.
func AnalyzeWeightsIn(weights []float32, format Format) *Analysis {
	return dataaware.Analyze(weights, format)
}

// PlanNetworkWise applies Eq. 1 once to the whole population
// (the baseline of Leveugle et al.).
func PlanNetworkWise(space FaultSpace, cfg Config) *Plan { return core.PlanNetworkWise(space, cfg) }

// PlanLayerWise applies Eq. 1 per layer.
func PlanLayerWise(space FaultSpace, cfg Config) *Plan { return core.PlanLayerWise(space, cfg) }

// PlanDataUnaware applies Eq. 1 per (bit, layer) stratum with p = 0.5.
func PlanDataUnaware(space FaultSpace, cfg Config) *Plan { return core.PlanDataUnaware(space, cfg) }

// PlanDataAware applies Eq. 1 per (bit, layer) stratum with the derived
// per-bit probabilities (Analysis.P).
func PlanDataAware(space FaultSpace, cfg Config, pPerBit []float64) *Plan {
	return core.PlanDataAware(space, cfg, pPerBit)
}

// AnalyzeWeightsPerLayer runs the data-aware analysis independently per
// layer — the per-layer refinement of the paper's network-wide p(i).
func AnalyzeWeightsPerLayer(net *Network) *PerLayerAnalysis {
	var layers [][]float32
	for _, wl := range net.WeightLayers() {
		layers = append(layers, wl.WeightData())
	}
	return dataaware.AnalyzePerLayer(layers, fp.FP32)
}

// PlanDataAwarePerLayer plans with per-layer per-bit probabilities
// (PerLayerAnalysis.P()).
func PlanDataAwarePerLayer(space FaultSpace, cfg Config, pPerLayerBit [][]float64) *Plan {
	return core.PlanDataAwarePerLayer(space, cfg, pPerLayerBit)
}

// Run executes a plan against an evaluator on one goroutine.
// Determinism guarantee: the Result is a pure function of (plan, seed) —
// the same seed always yields the same Result, and RunParallel with the
// same seed yields a bit-identical one at any worker count.
func Run(ev Evaluator, plan *Plan, seed int64) *Result { return core.Run(ev, plan, seed) }

// Compare judges a result against per-layer exhaustive critical rates.
func Compare(res *Result, exhaustiveByLayer []float64) *Comparison {
	return core.Compare(res, exhaustiveByLayer)
}

// ReplicatedEstimates reruns a plan with seeds 0..n-1 and reports each
// replica's estimate for one layer (Fig. 6's S0-S9).
func ReplicatedEstimates(ev Evaluator, plan *Plan, layer, nReplicas int) []StratifiedEstimate {
	return core.ReplicatedEstimates(ev, plan, layer, nReplicas)
}

// NewInjector builds the inference-based evaluator over a network and a
// fixed evaluation set.
func NewInjector(net *Network, ds *Dataset) *Injector { return inject.New(net, ds) }

// NewOracle builds the full-scale simulated evaluator.
func NewOracle(net *Network, cfg OracleConfig) *Oracle { return oracle.New(net, cfg) }

// OracleDefaults returns the calibrated default oracle configuration.
func OracleDefaults(seed int64) OracleConfig { return oracle.DefaultConfig(seed) }

// NewTrainer builds an SGD trainer for a sequential network.
func NewTrainer(net *Network, lr, momentum float64) (*Trainer, error) {
	return train.New(net, lr, momentum)
}

// TrainableSmallCNN builds a fresh (untrained) SmallCNN for use with
// NewTrainer.
func TrainableSmallCNN(seed int64) *Network { return train.TrainableSmallCNN(seed) }

// NewActivationInjector builds the transient activation-fault evaluator
// (PyTorchFI's "neuron" injection mode): single bit-flips on weight-layer
// outputs during individual inferences.
func NewActivationInjector(net *Network, ds *Dataset) *ActivationInjector {
	return inject.NewActivation(net, ds)
}

// AnalyzeWeightsINT8 quantizes the weights to symmetric INT8 and runs
// the data-aware analysis in the integer domain (the "different data
// representations" extension of the paper's conclusions).
func AnalyzeWeightsINT8(weights []float32) *INT8Analysis { return quantize.Analyze(weights) }

// TopSeparated reports whether the top two entries of a layer ranking
// are statistically separated at the configuration's confidence.
func TopSeparated(ranks []LayerRank, c Config) bool { return core.TopSeparated(ranks, c) }

// ReadResultJSON deserializes a campaign result saved with
// Result.WriteJSON.
func ReadResultJSON(r io.Reader) (*Result, error) { return core.ReadResultJSON(r) }

// RunParallel is Run spread over up to workers goroutines (0 selects
// GOMAXPROCS). Every stratum's pre-drawn sample is sharded across the
// workers, so even a single-stratum network-wise plan saturates all
// cores. Determinism guarantee: the same seed yields a Result
// bit-identical to Run's, regardless of worker count. Both evaluator
// families are supported — the ActivationInjector is shared
// (concurrency-safe); the Injector is cloned per worker (WorkerCloner)
// because its experiments mutate live network weights, and the Oracle
// because its clones count experiments without contending.
func RunParallel(ev Evaluator, plan *Plan, seed int64, workers int) *Result {
	return core.RunParallel(ev, plan, seed, workers)
}

// NewEngine builds the unified campaign engine. Defaults match
// RunParallel (all cores, no checkpointing, no early stop); see the
// With* options for the operational controls.
func NewEngine(opts ...EngineOption) *Engine { return core.NewEngine(opts...) }

// WithWorkers sets the evaluation worker count (0 = GOMAXPROCS,
// 1 = serial in draw order).
func WithWorkers(n int) EngineOption { return core.WithWorkers(n) }

// WithProgress installs a streaming progress sink, called synchronously
// from the engine's dispatcher with per-stratum draws completed, running
// critical tallies, and injections/sec.
func WithProgress(sink ProgressSink) EngineOption { return core.WithProgress(sink) }

// WithProgressInterval sets the tallied injections between progress
// events (default 10,000).
func WithProgressInterval(n int64) EngineOption { return core.WithProgressInterval(n) }

// WithCheckpoint enables periodic campaign checkpoints at path; an
// interrupted campaign resumed from the checkpoint (WithResume) yields a
// Result bit-identical to an uninterrupted run at the same seed.
func WithCheckpoint(path string) EngineOption { return core.WithCheckpoint(path) }

// WithCheckpointInterval sets the tallied injections between periodic
// checkpoint writes (default 100,000).
func WithCheckpointInterval(n int64) EngineOption { return core.WithCheckpointInterval(n) }

// WithResume makes Execute load the WithCheckpoint file before starting
// (a missing file starts fresh; a mismatched plan or seed is an error).
func WithResume() EngineOption { return core.WithResume() }

// WithEarlyStop halts each stratum once its achieved margin (Eq. 3
// inverted at the observed proportion) reaches target (0 = the plan's
// requested ErrorMargin), reporting actual-n in the Result alongside the
// planned-n in the Plan.
func WithEarlyStop(target float64) EngineOption { return core.WithEarlyStop(target) }

// WithDecodeValidation toggles the defensive fault-decode cross-check
// explicitly, overriding the SFI_VALIDATE_DECODE environment gate.
func WithDecodeValidation(on bool) EngineOption { return core.WithDecodeValidation(on) }

// WithTrace installs a structured trace sink: the engine emits
// campaign/stratum/shard lifecycle events, early-stop firings, and
// checkpoint saves through it. Tracing is observability only — the
// Result is bit-identical with or without a sink.
func WithTrace(sink TraceSink) EngineOption { return core.WithTrace(sink) }

// WithExperimentTimeout enables the per-experiment watchdog: an
// IsCritical call (including fault decode) that exceeds d counts as a
// failed attempt, exactly like a panic, and is retried or quarantined
// under the WithMaxRetries budget. Setting a timeout enables campaign
// supervision (panic isolation + quarantine) even when WithMaxRetries
// is not used.
func WithExperimentTimeout(d time.Duration) EngineOption { return core.WithExperimentTimeout(d) }

// WithMaxRetries enables supervised execution with n retries per
// failing experiment: each retry runs on a freshly cloned evaluator
// (WorkerCloner), and a fault that exhausts the budget is quarantined —
// excluded from the tally, reported in Result.Quarantined, with its
// stratum's margin recomputed over the reduced effective n. n = 0
// supervises (panics no longer crash the campaign) without retrying.
func WithMaxRetries(n int) EngineOption { return core.WithMaxRetries(n) }

// WithGroupedEvaluation makes each worker evaluate its shard's draws
// grouped by fault identity (layer, weight, bit, model) so consecutive
// experiments on the same weight share the injector's cached golden
// prefix; tallies are still merged strictly in draw order, so the
// Result stays bit-identical to the ungrouped schedule. Off by default:
// grouping is pure overhead for cheap evaluators (the oracle), and
// supervised campaigns (WithMaxRetries / WithExperimentTimeout) ignore
// it.
func WithGroupedEvaluation(on bool) EngineOption { return core.WithGroupedEvaluation(on) }

// WatchdogAbandonedLanes reports how many experiment goroutines
// abandoned by the WithExperimentTimeout watchdog are still pinned by
// their hung IsCritical call, process-wide. cmd/sfirun exports it as
// the sfi_watchdog_abandoned_lanes gauge.
func WatchdogAbandonedLanes() int64 { return core.WatchdogAbandonedLanes() }

// WithWarnings installs a sink for the engine's rare one-line
// operational warnings (quarantine decisions, checkpoint recovery from
// backup). Without one they go to stderr.
func WithWarnings(sink func(msg string)) EngineOption { return core.WithWarnings(sink) }

// AsyncSink decouples a slow ProgressSink from the engine's dispatcher
// through a buffered channel: non-final events are dropped when the
// buffer is full (a later snapshot supersedes them), final events never
// are. Call the returned stop function after Execute returns to drain
// and release the sink goroutine.
func AsyncSink(sink ProgressSink, buf int) (ProgressSink, func()) {
	return core.AsyncSink(sink, buf)
}

// SaveWeights serializes a network's injectable weights (checksummed
// binary container).
func SaveWeights(net *Network, w io.Writer) error { return models.SaveWeights(net, w) }

// LoadWeights restores weights saved with SaveWeights into a network of
// identical topology.
func LoadWeights(net *Network, r io.Reader) error { return models.LoadWeights(net, r) }

// AssessReliability converts a bit-granular campaign result into an SDC
// FIT report given a raw per-bit soft-error rate, enabling the
// selective-protection what-if analysis (see internal/reliability).
func AssessReliability(res *Result, cfg SERConfig) (*ReliabilityReport, error) {
	return reliability.Assess(res, cfg)
}

// MissionReliability returns exp(−FIT·hours/10⁹), the survival
// probability over a mission under a constant failure rate.
func MissionReliability(fit, hours float64) float64 {
	return reliability.MissionReliability(fit, hours)
}

// RequiredFIT returns the maximum tolerable SDC FIT for a target mission
// survival probability.
func RequiredFIT(targetReliability, hours float64) float64 {
	return reliability.RequiredFIT(targetReliability, hours)
}

// AdjacentMBU expands a seed fault into a burst of adjacent bit-flips in
// the same weight word (multi-bit upset); evaluate it with
// Injector.IsCriticalMulti.
func AdjacentMBU(seed Fault, width int) []Fault {
	return inject.AdjacentMBU(seed, width, fp.Bits32)
}

// Accuracy returns a network's top-1 accuracy on a dataset.
func Accuracy(net *Network, ds *Dataset) float64 { return train.Accuracy(net, ds) }
