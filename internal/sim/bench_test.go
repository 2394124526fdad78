package sim

import (
	"context"
	"testing"

	"svf/internal/isa"
	"svf/internal/pipeline"
	"svf/internal/synth"
	"svf/internal/trace"
)

// benchCellInsts is the per-run instruction budget for the campaign-cell
// benchmark; benchStreamInsts the per-iteration budget for the raw
// stream-production benchmarks.
const (
	benchCellInsts   = 200_000
	benchStreamInsts = 200_000
)

// benchProgram builds (once) the crafty program every sim benchmark uses.
func benchProgram(b *testing.B) *synth.Program {
	b.Helper()
	prog, err := ProgramFor(synth.Crafty())
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkGeneratorExec measures raw instruction-stream production by
// the synth generator: what every run paid before the trace cache, and
// what the first run of a profile still pays while recording.
func BenchmarkGeneratorExec(b *testing.B) {
	prog := benchProgram(b)
	gen := synth.NewGeneratorFor(prog)
	var in isa.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		for k := 0; k < benchStreamInsts; k++ {
			if !gen.Next(&in) {
				b.Fatal("generator exhausted")
			}
		}
	}
	b.ReportMetric(float64(b.N)*benchStreamInsts/b.Elapsed().Seconds(), "insts/sec")
}

// BenchmarkTraceReplay is the same stream production served from a
// recorded flat trace — the per-instruction cost every post-first timing
// run pays instead of BenchmarkGeneratorExec. Functional traffic runs
// skip even this copy: they walk the recorded slice in place.
func BenchmarkTraceReplay(b *testing.B) {
	prog := benchProgram(b)
	stream := trace.NewSliceStream(synth.TraceFor(prog, benchStreamInsts))
	var in isa.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset()
		for k := 0; k < benchStreamInsts; k++ {
			if !stream.Next(&in) {
				b.Fatal("trace exhausted")
			}
		}
	}
	b.ReportMetric(float64(b.N)*benchStreamInsts/b.Elapsed().Seconds(), "insts/sec")
}

// BenchmarkCampaignCell measures one Table 3 campaign cell: the same
// profile's trace driven through five stack-structure configurations
// (an SVF size sweep plus the stack cache) via TrafficOnly. These
// functional sweeps are where the trace cache bites hardest — stream
// production dominated each run before recording, and all five configs
// now share one recorded trace.
func BenchmarkCampaignCell(b *testing.B) {
	if testing.Short() {
		b.Skip("campaign benchmarks are skipped in -short mode")
	}
	prof := synth.Crafty()
	type cell struct {
		policy    pipeline.StackPolicy
		sizeBytes int
	}
	configs := []cell{
		{pipeline.PolicySVF, 2 << 10},
		{pipeline.PolicySVF, 4 << 10},
		{pipeline.PolicySVF, 8 << 10},
		{pipeline.PolicySVF, 16 << 10},
		{pipeline.PolicyStackCache, 8 << 10},
	}
	benchProgram(b) // program build/calibration is setup, not the cell
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range configs {
			if _, _, _, err := TrafficOnly(ctx, prof, c.policy, c.sizeBytes, benchCellInsts, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)*5*benchCellInsts/b.Elapsed().Seconds(), "insts/sec")
}

// timingCellConfigs is one timing sweep cell: the same profile across
// the baseline machine, an SVF port sweep, and the stack cache — five
// full timing runs that share one recorded trace and the machine pools.
func timingCellConfigs() []Options {
	return []Options{
		{MaxInsts: benchCellInsts},
		{Policy: pipeline.PolicySVF, StackPorts: 1, MaxInsts: benchCellInsts},
		{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: benchCellInsts},
		{Policy: pipeline.PolicySVF, StackPorts: 4, MaxInsts: benchCellInsts},
		{Policy: pipeline.PolicyStackCache, StackPorts: 2, MaxInsts: benchCellInsts},
	}
}

// BenchmarkTimingCampaignCell is the full-pipeline equivalent: five
// timing runs through the complete sim entry point. Replay and pooling
// help here too, but the pipeline hot loop dominates, so the win tracks
// BenchmarkPipelineRaw rather than BenchmarkTraceReplay.
func BenchmarkTimingCampaignCell(b *testing.B) {
	if testing.Short() {
		b.Skip("campaign benchmarks are skipped in -short mode")
	}
	prof := synth.Crafty()
	configs := timingCellConfigs()
	benchProgram(b)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, opt := range configs {
			res, err := Run(prof, opt)
			if err != nil {
				b.Fatal(err)
			}
			insts += res.Pipe.Committed
		}
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/sec")
}
