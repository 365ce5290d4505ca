package memsys

// Effects is a per-core log of deferred shared-state operations, the
// mechanism behind the deterministic two-phase parallel stepper
// (sim.Config.CoreParallel). During the parallel local phase each core runs
// against only its own L1s and predictor state; every operation that would
// touch shared state — an L2 request, a dirty-L1 writeback, a PVProxy read
// or writeback — is appended to the core's Effects under the key of the
// access that caused it instead of executing. The serial commit phase then
// replays the logs in exact round-robin access order via Commit, so the
// shared L2 and PVProxy counters observe precisely the operation sequence
// the serial stepper would have produced.
//
// Keys are assigned by EffectKey and are strictly increasing along each
// core's log (the local phase visits its own accesses in round order and
// applies remote-store invalidations at their exact serial positions), which
// is what lets Commit drain each log with a simple key-prefix scan.
type Effects struct {
	key uint32
	ops []effectOp
	pos int
}

// EffectKey encodes the commit position of one access phase: round is the
// access's index within the batch, actor the core whose access it is, and
// phase orders the sub-steps of one access — 0 for instruction-fetch
// effects, 1 for the invalidations the actor's store inflicts on other
// cores (logged in the victims' Effects, keyed by the writer), 2 for data
// and predictor effects. Keys compare in exact serial execution order.
func EffectKey(round, actor, phase int) uint32 {
	return uint32(round)<<5 | uint32(actor)<<2 | uint32(phase)
}

// effectKind discriminates the deferred operations.
type effectKind uint8

const (
	opL2Req effectKind = iota
	opL1WB
	opPVRead
	opPVWriteback
)

// effectOp is one deferred shared-state operation.
type effectOp struct {
	key       uint32
	kind      effectKind
	akind     AccessKind
	fp        bool // fillPrefetched for opL2Req
	addr      Addr
	fl2, fmem *uint64 // opPVRead: FilledByL2/FilledByMem counters
}

// SetKey sets the key under which subsequent operations are logged.
func (e *Effects) SetKey(key uint32) { e.key = key }

func (e *Effects) push(op effectOp) {
	op.key = e.key
	e.ops = append(e.ops, op)
}

func (e *Effects) appendL2Req(a Addr, kind AccessKind, fillPrefetched bool) {
	e.push(effectOp{kind: opL2Req, akind: kind, fp: fillPrefetched, addr: a})
}

func (e *Effects) appendL1WB(a Addr) {
	e.push(effectOp{kind: opL1WB, addr: a})
}

// AppendPVRead defers a PVProxy metadata read. fl2 and fmem point at the
// proxy's FilledByL2/FilledByMem counters; Commit increments the one
// matching the replayed read's serving level, standing in for the switch
// the proxy itself performs on a live backend result.
func (e *Effects) AppendPVRead(a Addr, fl2, fmem *uint64) {
	e.push(effectOp{kind: opPVRead, addr: a, fl2: fl2, fmem: fmem})
}

// AppendPVWriteback defers a PVProxy writeback of a dirty predictor set.
func (e *Effects) AppendPVWriteback(a Addr) {
	e.push(effectOp{kind: opPVWriteback, addr: a})
}

// Pending reports how many logged operations have not been committed. After
// a full batch commit it must be zero; a nonzero value means an access
// phase was committed out of order (its operations were skipped because
// their key never came up), and the stepper panics on it rather than
// publish a result whose shared state silently diverged.
func (e *Effects) Pending() int { return len(e.ops) - e.pos }

// Reset clears the log for the next batch, keeping capacity.
func (e *Effects) Reset() {
	e.ops = e.ops[:0]
	e.pos = 0
}

// Commit replays, against h, every operation logged under exactly the given
// key, in append order, and reports the serving levels of the demand
// operations among them: fetch for the instruction fetch, data for the
// demand load/store (both LevelL1 when the access hit its L1 and logged no
// demand operation — exactly the level the serial path reports then).
// Prefetch replays are executed for their cache and statistics effects but
// do not contribute a level, mirroring the serial path, which discards
// prefetch results.
func (e *Effects) Commit(h *Hierarchy, key uint32) (fetch, data Level) {
	fetch, data = LevelL1, LevelL1
	for e.pos < len(e.ops) && e.ops[e.pos].key == key {
		op := e.ops[e.pos]
		e.pos++
		switch op.kind {
		case opL2Req:
			lvl, _ := h.l2Access(op.addr, op.akind, op.fp)
			switch op.akind {
			case IFetch:
				fetch = lvl
			case Load, Store:
				data = lvl
			}
		case opL1WB:
			h.writebackToL2(op.addr)
		case opPVRead:
			res := h.PVRead(op.addr)
			switch {
			case res.Level == LevelL2 && op.fl2 != nil:
				*op.fl2++
			case res.Level == LevelMem && op.fmem != nil:
				*op.fmem++
			}
		case opPVWriteback:
			h.PVWriteback(op.addr)
		}
	}
	return fetch, data
}
