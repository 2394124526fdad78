package synth

import "testing"

// BenchmarkProgramBuild measures one uncached BuildProgram of crafty: the
// template draw plus the self-calibration passes (up to six
// 1M-instruction functional runs), which is what every profile's first
// use costs before sim.ProgramFor caches the program.
func BenchmarkProgramBuild(b *testing.B) {
	prof := Crafty()
	for i := 0; i < b.N; i++ {
		if _, err := BuildProgram(prof); err != nil {
			b.Fatal(err)
		}
	}
}
