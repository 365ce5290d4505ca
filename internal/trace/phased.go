package trace

import "fmt"

// Source is a Stream that can be read in batches and rewound to its
// beginning. Generator, Phased and CompiledReplayer implement it;
// sim.System drives its per-core streams through this interface so a core
// runs a steady workload, a phased one or a compiled trace with the same
// wiring.
type Source interface {
	Stream
	// ReadBatch fills dst from the stream and returns how many accesses it
	// wrote; a short count means a finite stream is exhausted. It must
	// allocate nothing: the batched step loop reuses one dst per core.
	ReadBatch(dst []Access) int
	Reset()
}

// Phase is one segment of a phased access stream: a workload parameter set
// and how many accesses the core spends in it before switching to the next
// phase. Phases model program phase changes and context switches — the
// time-varying behaviour the paper's steady-state workloads do not exercise
// but a shared PVCache must survive.
type Phase struct {
	// Params is the generator parameter set active during this phase.
	Params Params
	// Accesses is the phase length in accesses. In a multi-phase stream
	// every phase needs a positive length; a single-phase stream ignores it
	// (the phase simply never ends).
	Accesses int
}

// Validate checks one phase list: at least one phase, every parameter set
// valid, and positive lengths whenever the stream actually switches.
func ValidatePhases(phases []Phase) error {
	if len(phases) == 0 {
		return fmt.Errorf("trace: empty phase list")
	}
	for i, ph := range phases {
		if err := ph.Params.Validate(); err != nil {
			return fmt.Errorf("trace: phase %d: %w", i, err)
		}
		if len(phases) > 1 && ph.Accesses <= 0 {
			return fmt.Errorf("trace: phase %d (%s) has length %d; multi-phase streams need positive lengths",
				i, ph.Params.Name, ph.Accesses)
		}
	}
	return nil
}

// Phased interleaves several generators on one core, switching between them
// deterministically at access-count boundaries. Phases cycle: after the
// last phase's budget is spent the stream returns to the first phase, and a
// resumed phase continues its generator where it left off — the way a
// context-switched process resumes its own access stream rather than
// restarting it. A single-phase Phased is byte-identical to the bare
// Generator it wraps.
type Phased struct {
	phases []Phase
	gens   []*Generator
	cur    int
	left   int
}

// NewPhased builds core's phased stream under the given seed. Every phase
// gets its own deterministic Generator seeded exactly as a steady run of
// that phase's parameters would be, so a phase's stream is the prefix of
// the homogeneous stream it was cut from.
func NewPhased(phases []Phase, seed uint64, core int) *Phased {
	if err := ValidatePhases(phases); err != nil {
		panic(err)
	}
	p := &Phased{
		phases: append([]Phase(nil), phases...),
		gens:   make([]*Generator, len(phases)),
	}
	for i, ph := range phases {
		p.gens[i] = NewGenerator(ph.Params, seed, core)
	}
	p.left = p.phases[0].Accesses
	return p
}

// Phase returns the index of the phase the next access will be drawn from
// (the switch itself is performed lazily, when that access is drawn).
func (p *Phased) Phase() int {
	if len(p.phases) > 1 && p.left <= 0 {
		return (p.cur + 1) % len(p.phases)
	}
	return p.cur
}

// Params returns the workload parameters the next access will be drawn
// under.
func (p *Phased) Params() Params { return p.phases[p.Phase()].Params }

// advance switches to the next phase when the active phase's budget is
// spent, before the first access of the new phase is drawn.
func (p *Phased) advance() {
	if len(p.phases) > 1 && p.left <= 0 {
		p.cur = (p.cur + 1) % len(p.phases)
		p.left = p.phases[p.cur].Accesses
	}
}

// Next returns the next access, switching phases when the active phase's
// budget is spent.
func (p *Phased) Next() Access {
	p.advance()
	p.left--
	return p.gens[p.cur].Next()
}

// ReadBatch fills dst with exactly the accesses len(dst) Next calls would
// return, one generator batch per phase segment; a phased stream never
// runs dry, so the count is always len(dst).
func (p *Phased) ReadBatch(dst []Access) int {
	for i := 0; i < len(dst); {
		p.advance()
		k := len(dst) - i
		if len(p.phases) > 1 && k > p.left {
			k = p.left
		}
		p.gens[p.cur].ReadBatch(dst[i : i+k])
		p.left -= k
		i += k
	}
	return len(dst)
}

// Reset rewinds the stream to its start: phase 0, full budget, every
// generator rewound. A reset Phased replays exactly the stream a freshly
// built one would.
func (p *Phased) Reset() {
	p.cur = 0
	p.left = p.phases[0].Accesses
	for _, g := range p.gens {
		g.Reset()
	}
}
