package synth

import (
	"math/rand/v2"

	"svf/internal/isa"
	"svf/internal/regions"
	"svf/internal/trace"
)

// maxFrames bounds the activation stack so a badly parameterised profile
// cannot run away.
const maxFrames = 8192

// roFootprintWords is the fixed read-only-data footprint.
const roFootprintWords = 4096

// Generator functionally executes a Program, emitting its dynamic
// instruction trace. It implements trace.Stream and trace.Resetter and is
// fully deterministic in the profile seed.
type Generator struct {
	prog *Program
	rng  *rand.Rand

	sp       uint64 // current stack pointer
	sp0      uint64 // initial stack pointer (program entry)
	frames   []actFrame
	limitW   int    // current episode's stack-depth cap in words
	redrawAt uint64 // emitted count at which the next episode begins

	emitted uint64
	// brCount is the per-template execution counter driving periodic
	// branch patterns.
	brCount []uint32

	// Coroutine state (NumCoroutines > 1 only). ctxs holds the suspended
	// stacks; the fields above always describe the running coroutine.
	ctxs       []coroCtx
	cur        int    // index of the running coroutine
	nextSwitch uint64 // emitted count of the next stack switch
}

// coroCtx is one suspended coroutine stack.
type coroCtx struct {
	sp, sp0 uint64
	frames  []actFrame
}

type actFrame struct {
	fn       *function
	ti       int // next template index
	retPC    uint64
	loops    []loopState
	own      int    // dynamic instructions executed in this frame
	cap      int    // own-instruction budget before the invocation winds down
	deadline uint64 // emitted count at which this frame's whole subtree winds down
	// alloca is the number of bytes of dynamic allocation live in this
	// frame; released by one computed $sp restore when the body ends.
	alloca int32
	// lowAddr is the frame's base (the value of $sp while the function
	// body runs), recorded when the prologue's allocation executes.
	lowAddr uint64
	// written is a ring of recently stored frame offsets; loads into a
	// frame mostly read recently written slots, preserving the paper's
	// first-reference-is-a-store stack semantics.
	written [8]int32
	nw      uint8
}

// writtenOffset returns a recently written offset of the frame, or -1.
func (f *actFrame) writtenOffset(g *Generator) int32 {
	if f.nw == 0 {
		return -1
	}
	n := int(f.nw)
	if n > len(f.written) {
		n = len(f.written)
	}
	return f.written[g.rng.IntN(n)]
}

type loopState struct {
	begin     int
	remaining int
}

// recordWrite notes that a frame offset was stored to.
// (Ring semantics: the most recent len(written) offsets are retained.)
func (f *actFrame) recordWrite(off int32) {
	f.written[int(f.nw)%len(f.written)] = off
	f.nw++
	if f.nw >= 2*uint8(len(f.written)) {
		f.nw = uint8(len(f.written)) // avoid overflow; ring stays full
	}
}

// NewGenerator builds the program for prof and returns a generator
// positioned at the program entry.
func NewGenerator(prof *Profile) (*Generator, error) {
	prog, err := BuildProgram(prof)
	if err != nil {
		return nil, err
	}
	return NewGeneratorFor(prog), nil
}

// NewGeneratorFor returns a generator over an already-built program,
// letting callers reuse one program across many replays.
func NewGeneratorFor(prog *Program) *Generator {
	g := &Generator{prog: prog}
	g.Reset()
	return g
}

// Reset implements trace.Resetter: the generator replays the identical
// trace from the beginning.
func (g *Generator) Reset() {
	prof := g.prog.Prof
	g.rng = rand.New(rand.NewPCG(prof.Seed^0xa5a5a5a55a5a5a5a, prof.Seed+0x1234_5678))
	g.sp0 = g.prog.Layout.StackBase - 4096 // environment/args gap
	g.sp = g.sp0
	g.frames = g.frames[:0]
	g.frames = append(g.frames, actFrame{fn: g.prog.funcs[0], cap: g.drawCap(), deadline: ^uint64(0)})
	g.emitted = 0
	if g.brCount == nil {
		g.brCount = make([]uint32, g.prog.totalTmpls)
	} else {
		for i := range g.brCount {
			g.brCount[i] = 0
		}
	}
	g.limitW = g.drawLimit()
	g.scheduleRedraw()

	g.ctxs = g.ctxs[:0]
	g.cur = 0
	g.nextSwitch = ^uint64(0)
	if n := prof.NumCoroutines; n > 1 {
		spacing := uint64(prof.CoroutineSpacingWords) * isa.WordSize
		for k := 0; k < n; k++ {
			base := g.prog.Layout.StackBase - 4096 - uint64(k)*spacing
			c := coroCtx{sp: base, sp0: base}
			c.frames = append(c.frames, actFrame{fn: g.prog.funcs[0], cap: g.drawCap(), deadline: ^uint64(0)})
			g.ctxs = append(g.ctxs, c)
		}
		// Adopt coroutine 0 (it shares the single-stack entry $sp).
		g.sp, g.sp0 = g.ctxs[0].sp, g.ctxs[0].sp0
		g.frames = g.ctxs[0].frames
		g.scheduleSwitch()
	}
}

// scheduleSwitch picks when the next coroutine switch fires.
func (g *Generator) scheduleSwitch() {
	p := float64(g.prog.Prof.SwitchPeriodInsts)
	g.nextSwitch = g.emitted + 1 + uint64(p*(0.5+g.rng.Float64()))
}

// stepSwitch suspends the running coroutine and resumes the next one,
// emitting the swapcontext-style $sp relocation: one computed (never
// immediate) update that moves the stack pointer across stacks.
func (g *Generator) stepSwitch(in *isa.Inst) {
	c := &g.ctxs[g.cur]
	c.sp = g.sp
	c.frames = g.frames
	g.cur = (g.cur + 1) % len(g.ctxs)
	n := &g.ctxs[g.cur]
	delta := int64(n.sp) - int64(g.sp)
	g.sp, g.sp0 = n.sp, n.sp0
	g.frames = n.frames
	g.emitSPAdjust(in, g.prog.switchPC, int32(delta), false)
	g.scheduleSwitch()
}

// stackFloor returns the lowest address the running stack may grow to:
// the modeled region base (plus a guard page), or — under coroutines —
// the next coroutine's stack base. Allocations are suppressed at the
// floor, so $sp can neither wrap below the region nor scribble over a
// neighbouring coroutine stack.
func (g *Generator) stackFloor() uint64 {
	layout := &g.prog.Layout
	floor := layout.StackBase - layout.StackMax + 4096
	if len(g.ctxs) > 0 {
		spacing := uint64(g.prog.Prof.CoroutineSpacingWords) * isa.WordSize
		if f := g.ctxs[g.cur].sp0 - spacing + 256; f > floor {
			floor = f
		}
	}
	return floor
}

// scheduleRedraw picks when the current depth episode ends.
func (g *Generator) scheduleRedraw() {
	e := float64(g.prog.Prof.EpisodeLen)
	g.redrawAt = g.emitted + uint64(e*(0.5+g.rng.Float64()))
}

// Emitted returns how many instructions have been produced since the last
// reset.
func (g *Generator) Emitted() uint64 { return g.emitted }

// SP returns the current architectural stack pointer.
func (g *Generator) SP() uint64 { return g.sp }

// DepthWords returns the current stack depth in 64-bit words below the
// program's entry stack pointer.
func (g *Generator) DepthWords() uint64 { return (g.sp0 - g.sp) / isa.WordSize }

func (g *Generator) drawLimit() int {
	prof := g.prog.Prof
	target := prof.DepthTypicalWords
	if g.rng.Float64() < prof.BurstProb {
		target = prof.DepthBurstWords
	}
	// ±20% episode-to-episode noise.
	return int(float64(target) * (0.8 + 0.4*g.rng.Float64()))
}

// drawCap draws one invocation's own-instruction budget.
func (g *Generator) drawCap() int {
	k := g.prog.Prof.InvocationLen
	return int(float64(k) * (0.5 + g.rng.Float64()))
}

// frameAt returns the live activation frame containing addr, or nil. The
// frames are contiguous and sorted by descending lowAddr, so a binary
// search suffices.
func (g *Generator) frameAt(addr uint64) *actFrame {
	lo, hi := 0, len(g.frames)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		f := &g.frames[mid]
		if f.lowAddr == 0 {
			// Frame pushed but its allocation has not executed yet.
			hi = mid - 1
			continue
		}
		top := f.lowAddr + uint64(f.fn.frameBytes())
		switch {
		case addr < f.lowAddr:
			lo = mid + 1
		case addr >= top:
			hi = mid - 1
		default:
			return f
		}
	}
	return nil
}

// drawSubtree draws a fresh subtree budget for a newly created invocation.
func (g *Generator) drawSubtree() uint64 {
	k := float64(g.prog.Prof.SubtreeLen)
	return uint64(k * (0.5 + g.rng.Float64()))
}

// Next implements trace.Stream. The generator never exhausts; wrap it in a
// trace.Limit (or stop reading) to bound the run.
func (g *Generator) Next(in *isa.Inst) bool {
	if len(g.ctxs) > 0 && g.emitted >= g.nextSwitch {
		g.stepSwitch(in)
		g.emitted++
		return true
	}
	f := &g.frames[len(g.frames)-1]
	fn := f.fn
	if f.alloca != 0 && f.ti >= fn.bodyEnd {
		// The body is done: release the frame's dynamic allocations with
		// one computed $sp restore (a frame-pointer epilogue), so the
		// save-slot reloads that follow see their prologue addresses.
		g.sp += uint64(f.alloca)
		g.emitSPAdjust(in, fn.tmpls[fn.bodyEnd].pc, f.alloca, false)
		f.alloca = 0
		g.emitted++
		return true
	}
	if f.ti >= len(fn.tmpls) {
		// Only main can fall off its end: wrap its body as the outer
		// event loop.
		g.emitJump(in, fn.tmpls[len(fn.tmpls)-1].pc+4, fn.tmpls[fn.bodyStart].pc)
		f.ti = fn.bodyStart
		f.loops = f.loops[:0]
		f.own = 0
		f.cap = g.drawCap()

		g.emitted++
		return true
	}
	t := &fn.tmpls[f.ti]
	capped := f.own >= f.cap || g.emitted >= f.deadline
	f.own++
	switch t.kind {
	case tALU, tFPSet:
		g.emitALU(in, t, isa.KindALU)
		f.ti++
	case tMult:
		g.emitALU(in, t, isa.KindMult)
		f.ti++
	case tMem:
		g.emitMem(in, t, f, fn)
		f.ti++
	case tBranch:
		var taken bool
		if t.period > 0 {
			c := g.brCount[t.gid]
			g.brCount[t.gid] = c + 1
			taken = c%uint32(t.period) != uint32(t.period)-1
		} else {
			taken = g.rng.Float64() < float64(t.bias)
		}
		target := fn.tmpls[len(fn.tmpls)-1].pc + 4
		if int(t.partner) < len(fn.tmpls) {
			target = fn.tmpls[t.partner].pc
		}
		g.emitBranch(in, t.pc, target, taken, t.src1)
		if taken {
			f.ti = int(t.partner)
		} else {
			f.ti++
		}
	case tLoopBegin:
		f.loops = append(f.loops, loopState{begin: f.ti, remaining: int(t.tripMin) + g.rng.IntN(int(t.tripMax-t.tripMin)+1)})
		g.emitALU(in, t, isa.KindALU)
		f.ti++
	case tLoopEnd:
		ls := &f.loops[len(f.loops)-1]
		ls.remaining--
		if capped {
			// Invocation budget spent: the loop exits early, as a
			// data-dependent break would.
			ls.remaining = 0
		}
		target := fn.tmpls[ls.begin+1].pc
		if ls.remaining > 0 {
			g.emitBranch(in, t.pc, target, true, t.src1)
			f.ti = ls.begin + 1
		} else {
			g.emitBranch(in, t.pc, target, false, t.src1)
			f.loops = f.loops[:len(f.loops)-1]
			f.ti++
		}
	case tCall:
		g.stepCall(in, f, t, capped)
	case tFrameAlloc:
		g.sp -= uint64(fn.frameBytes())
		f.lowAddr = g.sp
		g.emitSPAdjust(in, t.pc, -fn.frameBytes(), !t.nonImm)
		f.ti++
	case tAlloca:
		words := int(t.tripMin)
		if t.tripMax > t.tripMin {
			words += g.rng.IntN(int(t.tripMax-t.tripMin) + 1)
		}
		bytes := int32(words) * isa.WordSize
		if bytes > 0 && g.sp-uint64(bytes) > g.stackFloor() &&
			int(g.DepthWords())+words <= g.limitW {
			g.sp -= uint64(bytes)
			f.alloca += bytes
			g.emitSPAdjust(in, t.pc, -bytes, !t.nonImm)
		} else {
			// At the region floor the allocation is suppressed and the
			// slot degrades to compute, like a guarded alloca that fails.
			g.emitALU(in, t, isa.KindALU)
		}
		f.ti++
	case tFrameFree:
		g.sp += uint64(fn.frameBytes())
		g.emitSPAdjust(in, t.pc, fn.frameBytes(), true)
		f.ti++
	case tRet:
		*in = isa.Inst{PC: t.pc, Addr: f.retPC, Kind: isa.KindReturn, Src1: isa.RegRA, Flags: isa.FlagTaken}
		g.frames = g.frames[:len(g.frames)-1]
	default:
		panic("synth: unknown template kind")
	}
	g.emitted++
	return true
}

func (g *Generator) stepCall(in *isa.Inst, f *actFrame, t *tmpl, capped bool) {
	if g.emitted >= g.redrawAt {
		g.limitW = g.drawLimit()
		g.scheduleRedraw()
	}
	callee := g.prog.funcs[t.callee]
	depthW := int(g.DepthWords())
	execute := !capped && depthW+callee.frameWords <= g.limitW && len(g.frames) < maxFrames &&
		g.sp-uint64(callee.frameBytes()) > g.stackFloor()
	if execute {
		// Depth pressure: below 35% of the episode target, calls always
		// execute so the stack grows quickly; approaching the target the
		// probability decays, so the depth oscillates in a band under
		// the target rather than pinning to it (the call/return churn
		// visible in Figure 2).
		frac := float64(depthW) / float64(g.limitW)
		if frac > 0.35 {
			pExec := 1 - (frac-0.35)/0.65*0.92 // 1.0 at 35% → 0.08 at 100%
			execute = g.rng.Float64() < pExec
		}
	}
	if !execute {
		// The guarded call is skipped, which shows up in the trace as a
		// not-taken conditional branch.
		g.emitBranch(in, t.pc, t.pc+4, false, t.src1)
		f.ti++
		return
	}
	deadline := g.emitted + g.drawSubtree()
	if parent := f.deadline; deadline > parent {
		deadline = parent
	}
	*in = isa.Inst{PC: t.pc, Addr: callee.entryPC, Kind: isa.KindCall, Dst: isa.RegRA, Flags: isa.FlagTaken}
	f.ti++
	g.frames = append(g.frames, actFrame{fn: callee, retPC: t.pc + 4, cap: g.drawCap(), deadline: deadline})
}

func (g *Generator) emitALU(in *isa.Inst, t *tmpl, kind isa.Kind) {
	*in = isa.Inst{PC: t.pc, Kind: kind, Dst: t.dst, Src1: t.src1, Src2: t.src2}
	if in.Dst == 0 {
		in.Dst = isa.RegZero
	}
}

func (g *Generator) emitBranch(in *isa.Inst, pc, target uint64, taken bool, src uint8) {
	*in = isa.Inst{PC: pc, Addr: target, Kind: isa.KindBranch, Src1: src, Dst: isa.RegZero}
	if taken {
		in.Flags |= isa.FlagTaken
	}
}

func (g *Generator) emitJump(in *isa.Inst, pc, target uint64) {
	*in = isa.Inst{PC: pc, Addr: target, Kind: isa.KindJump, Dst: isa.RegZero, Flags: isa.FlagTaken}
}

func (g *Generator) emitSPAdjust(in *isa.Inst, pc uint64, delta int32, immediate bool) {
	*in = isa.Inst{PC: pc, Kind: isa.KindSPAdjust, Imm: delta, Dst: isa.RegSP, Src1: isa.RegSP}
	if immediate {
		in.Flags |= isa.FlagSPImmediate
	} else {
		in.Src2 = scratchRegs[0] // computed update reads another register
	}
}

func (g *Generator) emitMem(in *isa.Inst, t *tmpl, f *actFrame, fn *function) {
	layout := &g.prog.Layout
	prof := g.prog.Prof
	var addr uint64
	base := uint8(isa.RegZero)
	var imm int32

	switch t.space {
	case spaceStack:
		switch {
		case t.alias:
			// $gpr-addressed reference to the current frame. Not
			// recorded in the written ring: only the explicit paired
			// $sp load may collide with it (§3.2), at the profile's
			// controlled rate.
			addr = g.sp + uint64(t.offW)*isa.WordSize
			base = t.src2
		case t.deep:
			allocW := int(g.DepthWords())
			hi := min(prof.DeepMaxWords, allocW-1)
			lo := min(fn.frameWords, hi)
			if hi <= 0 {
				addr = g.sp // degenerate: empty stack, touch TOS
			} else {
				d := lo
				if hi > lo {
					span := hi - lo + 1
					draw := g.rng.IntN(span)
					for k := 0; k < prof.DeepSkew; k++ {
						if v := g.rng.IntN(span); v > draw {
							draw = v
						}
					}
					d = lo + draw
				}
				addr = g.sp + uint64(d)*isa.WordSize
				// Pointer references target live ancestor locals:
				// snap to a slot the owning frame actually wrote (its
				// saved registers at worst), so loads read
				// previously-written memory as real programs do.
				if af := g.frameAt(addr); af != nil && t.isLoad {
					if off := af.writtenOffset(g); off >= 0 {
						addr = af.lowAddr + uint64(off)*isa.WordSize
					} else {
						addr = af.lowAddr // saved-RA slot
					}
				}
			}
			if t.method == regions.MethodFP {
				base = isa.RegFP
			} else {
				base = t.src2
				if base == 0 || base == isa.RegZero {
					base = pointerRegs[0]
				}
			}
		default:
			off := t.offW
			if t.isLoad && !t.fixedOff && f.nw > 0 && g.rng.Float64() < 0.995 {
				// Read a recently written slot: stack locations are
				// written before they are read.
				n := int(f.nw)
				if n > len(f.written) {
					n = len(f.written)
				}
				off = f.written[g.rng.IntN(n)]
			}
			if !t.isLoad && t.method != regions.MethodGPR {
				// Only $sp/$fp stores feed the written ring, so
				// redirected $sp loads cannot create uncontrolled
				// $gpr-store collisions.
				f.recordWrite(off)
			}
			addr = g.sp + uint64(off)*isa.WordSize
			switch t.method {
			case regions.MethodFP:
				base = isa.RegFP
				imm = off * isa.WordSize
			case regions.MethodGPR:
				// Pointer-addressed access to a frame slot: the full
				// address lives in the register, no displacement.
				base = t.src2
				if base == 0 || base == isa.RegZero {
					base = pointerRegs[0]
				}
			default:
				base = isa.RegSP
				imm = off * isa.WordSize
			}
		}
	case spaceGlobal:
		addr = layout.GlobalBase + g.dataSlot(prof.GlobalFootprintWords)*isa.WordSize
		base = t.src2
	case spaceHeap:
		addr = layout.HeapBase + g.dataSlot(prof.HeapFootprintWords)*isa.WordSize
		base = t.src2
	case spaceRO:
		addr = layout.RODataBase + g.dataSlot(roFootprintWords)*isa.WordSize
		base = t.src2
	}
	if base == 0 || base == isa.RegZero {
		base = pointerRegs[0]
	}

	kind := isa.KindStore
	if t.isLoad {
		kind = isa.KindLoad
	}
	size := t.size
	if size == 0 {
		size = isa.WordSize
	}
	*in = isa.Inst{
		PC: t.pc, Addr: addr, Imm: imm, Kind: kind,
		Base: base, Size: size,
	}
	if t.isLoad {
		in.Dst = t.dst
		in.Src1 = base
	} else {
		in.Dst = isa.RegZero
		in.Src1 = t.src1
		in.Src2 = base
	}
}

// dataSlot draws a word slot within a footprint, with a hot subset
// capturing HotFrac of the accesses.
func (g *Generator) dataSlot(footprintWords int) uint64 {
	prof := g.prog.Prof
	if footprintWords <= 1 {
		return 0
	}
	hot := footprintWords / 64
	if hot < 1 {
		hot = 1
	}
	if g.rng.Float64() < prof.HotFrac {
		return uint64(g.rng.IntN(hot))
	}
	return uint64(g.rng.IntN(footprintWords))
}

// TraceFor materializes the first n instructions of an already-built
// program's trace into one flat pre-sized buffer, the generator writing
// each instruction straight into its slot. It is the trace cache's
// recording hook: one call here replaces the per-run generator execution
// for every later run of the same (program, budget) pair.
func TraceFor(prog *Program, n int) []isa.Inst {
	g := NewGeneratorFor(prog)
	out := make([]isa.Inst, n)
	for i := range out {
		if !g.Next(&out[i]) {
			return out[:i]
		}
	}
	return out
}

// Trace generates the first n instructions of the profile's trace.
func Trace(prof *Profile, n int) ([]isa.Inst, error) {
	prog, err := BuildProgram(prof)
	if err != nil {
		return nil, err
	}
	return TraceFor(prog, n), nil
}

// Stream returns a bounded stream of the profile's first n instructions.
func Stream(prof *Profile, n int) (trace.Stream, error) {
	g, err := NewGenerator(prof)
	if err != nil {
		return nil, err
	}
	return &trace.Limit{S: g, N: n}, nil
}
