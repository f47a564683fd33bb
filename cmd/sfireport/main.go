// Command sfireport renders saved campaign results (Result.WriteJSON /
// sfirun output) into vulnerability and reliability reports without
// re-running any injections:
//
//	sfirun ... (save a campaign)          # produce result.json
//	sfireport -in result.json             # layer/bit rankings
//	sfireport -in result.json -fit 1e-4   # + SDC FIT and protection sweep
//
// With -run, the tool first executes a fresh data-unaware campaign on
// the named model against the oracle substrate and saves it to -in, so a
// full report can be produced in one invocation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"cnnsfi/internal/report"
	"cnnsfi/sfi"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind main, parameterised for testing. Bad
// input yields one actionable line on stderr and exit code 1.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfireport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "result.json", "campaign result file")
	runFresh := fs.Bool("run", false, "run a fresh data-unaware oracle campaign on -model and save it to -in first")
	model := fs.String("model", "smallcnn", "model for -run")
	seed := fs.Int64("seed", 1, "weight seed for -run")
	oracleSeed := fs.Int64("oracle-seed", 3, "ground-truth seed for -run")
	fitPerBit := fs.Float64("fit", 0, "raw soft-error rate (FIT/bit); > 0 enables the reliability report")
	mission := fs.Float64("mission", 50000, "mission duration in hours for the reliability report")
	topBits := fs.Int("top-bits", 6, "bit-ranking entries to print")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *topBits < 0 {
		fmt.Fprintf(stderr, "sfireport: -top-bits must be >= 0 (got %d)\n", *topBits)
		return 1
	}

	if *runFresh {
		if err := runAndSave(*model, *seed, *oracleSeed, *in); err != nil {
			fmt.Fprintf(stderr, "sfireport: %v\n", err)
			return 1
		}
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintf(stderr, "sfireport: %v\n", err)
		return 1
	}
	defer f.Close()
	result, err := sfi.ReadResultJSON(f)
	if err != nil {
		fmt.Fprintf(stderr, "sfireport: %s: %v\n", *in, err)
		return 1
	}

	cfg := result.Plan.Config
	fmt.Fprintf(stdout, "campaign: %s, %s injections over %s faults (e=%.2g%%, confidence %.3g)\n",
		result.Plan.Approach, report.Comma(result.Injections()),
		report.Comma(result.Plan.Space.Total()), cfg.ErrorMargin*100, cfg.Confidence)
	// Supervised campaigns may have excluded draws; every margin below is
	// already computed over the reduced effective n, but the reader needs
	// to know the sample shrank and where.
	if n := len(result.Quarantined); n > 0 {
		perStratum := map[int]int{}
		for _, q := range result.Quarantined {
			perStratum[q.Stratum]++
		}
		fmt.Fprintf(stdout, "quarantined: %d draw(s) excluded after exhausting retries across %d strata; margins below are over the reduced n\n",
			n, len(perStratum))
		for i, est := range result.Estimates {
			if k := perStratum[i]; k > 0 {
				sub := result.Plan.Subpops[i]
				fmt.Fprintf(stdout, "  stratum %d (layer %d, bit %d): %d quarantined, effective n %d of %d planned, margin %.4f%%\n",
					i, sub.Layer, sub.Bit, k, est.SampleSize, sub.SampleSize, est.Margin(cfg)*100)
			}
		}
	}
	fmt.Fprintln(stdout)

	// Layer ranking.
	ranks := result.RankLayers()
	tab := report.NewTable("layer vulnerability ranking", "rank", "layer", "critical [%]", "margin [%]", "n")
	for i, r := range ranks {
		tab.AddRow(i+1, r.Layer,
			fmt.Sprintf("%.4f", r.Estimate.PHat()*100),
			fmt.Sprintf("%.4f", r.Estimate.Margin(cfg)*100),
			r.Estimate.SampleSize())
	}
	tab.Render(stdout)
	fmt.Fprintf(stdout, "top-2 statistically separated: %v\n\n", sfi.TopSeparated(ranks, cfg))

	// Bit ranking (bit-granular plans only).
	if result.Plan.Approach == sfi.DataUnaware || result.Plan.Approach == sfi.DataAware {
		bits := result.RankBits()
		if *topBits > len(bits) {
			*topBits = len(bits)
		}
		bt := report.NewTable("bit vulnerability ranking", "rank", "bit", "role", "critical [%]", "margin [%]")
		for i, r := range bits[:*topBits] {
			bt.AddRow(i+1, r.Bit, sfi.FP32.RoleOf(r.Bit).String(),
				fmt.Sprintf("%.4f", r.Estimate.PHat()*100),
				fmt.Sprintf("%.4f", r.Estimate.Margin(cfg)*100))
		}
		bt.Render(stdout)
		fmt.Fprintln(stdout)

		if *fitPerBit > 0 {
			rep, err := sfi.AssessReliability(result, sfi.SERConfig{RawFITPerBit: *fitPerBit})
			if err != nil {
				fmt.Fprintf(stderr, "sfireport: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "SDC rate (unprotected): %.6f FIT over %s cells\n",
				rep.SDCFIT, report.Comma(rep.TotalCells))
			for k := 0; k <= 2; k++ {
				p := rep.BestProtection(k)
				fmt.Fprintf(stdout, "  protect %-12v residual %.6f FIT, overhead %s, mission(%gh) R=%.6f\n",
					p.Bits, rep.ResidualFIT(p), report.Pct(rep.ProtectionOverhead(p)),
					*mission, sfi.MissionReliability(rep.ResidualFIT(p), *mission))
			}
		}
	} else if *fitPerBit > 0 {
		fmt.Fprintln(stderr, "sfireport: reliability report needs a bit-granular campaign (data-unaware or data-aware)")
	}
	return 0
}

func runAndSave(model string, seed, oracleSeed int64, path string) error {
	net, err := sfi.BuildModel(model, seed)
	if err != nil {
		return err
	}
	o := sfi.NewOracle(net, sfi.OracleDefaults(oracleSeed))
	plan := sfi.PlanDataUnaware(o.Space(), sfi.DefaultConfig())
	res := sfi.Run(o, plan, 0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return res.WriteJSON(f)
}
