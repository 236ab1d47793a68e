package replay

// Store is a trainer's replay row store: the per-agent Buffer (the paper's
// baseline) or the key-value KVBuffer (§IV-B2). A trainer holds exactly one.
// Both keep their slot bookkeeping in one embedded ring, so every sampler,
// the snapshot encode (AppendSection) and the restore (Section.AddTo) work
// over either, and a section one writes the other reads.
type Store interface {
	Spec() Spec
	Len() int
	// Add stores one environment step for all agents, tells the listeners
	// the slot, and returns it.
	Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) int
	// GatherAll copies the transitions at indices into one AgentBatch per
	// agent.
	GatherAll(indices []int, dst []*AgentBatch)

	slots() *ring
	// appendField appends agent a's field (regionObs … regionDone) of every
	// stored slot, in slot order, as little-endian float64s.
	appendField(dst []byte, a, field int) []byte
}

// ring is the slot bookkeeping both stores keep: the shape, how many rows
// are stored, where the next one goes, and who hears of each add.
type ring struct {
	spec   Spec
	length int // number of valid transitions
	next   int // write cursor

	onAdd []func(idx int) // listeners (prioritized samplers)
}

// Spec returns the store's shape description.
func (r *ring) Spec() Spec { return r.spec }

// Len returns the number of stored transitions.
func (r *ring) Len() int { return r.length }

// AddListener registers a callback invoked with the slot index of every
// newly added transition (used by prioritized samplers).
func (r *ring) AddListener(f func(idx int)) { r.onAdd = append(r.onAdd, f) }

func (r *ring) slots() *ring { return r }

// added moves the cursor past slot idx, just written, and tells the
// listeners.
func (r *ring) added(idx int) {
	r.next = (r.next + 1) % r.spec.Capacity
	if r.length < r.spec.Capacity {
		r.length++
	}
	for _, f := range r.onAdd {
		f(idx)
	}
}

// oldest returns the slot of the oldest stored transition: 0 until the ring
// fills, then the write cursor.
func (r *ring) oldest() int {
	if r.length == r.spec.Capacity {
		return r.next
	}
	return 0
}
