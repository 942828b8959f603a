// Package snapshot seeds field-coverage violations for the snapshot
// analyzer: structs with SnapshotWalk/snapshotWalk(*Walker) methods
// must serialize or explicitly park every field.
package snapshot

// Walker mirrors internal/snap.Walker; the analyzer matches the
// parameter type by name so fixtures stay hermetic.
type Walker struct{}

func (w *Walker) Uint64(v *uint64) {}
func (w *Walker) Bool(v *bool)     {}
func (w *Walker) Static(...any)    {}

// complete walks one field, parks one in Static: clean.
type complete struct {
	count uint64
	cfg   int
}

func (c *complete) snapshotWalk(w *Walker) {
	w.Uint64(&c.count)
	w.Static(c.cfg)
}

// missingField forgets its newest field: the bug class the rule exists
// for — a restore would silently zero b.
type missingField struct {
	a uint64
	b bool
}

func (m *missingField) snapshotWalk(w *Walker) { // want "snapshot walk for missingField does not visit field b"
	w.Uint64(&m.a)
}

// exportedWalk pins the exported-method spelling and multiple misses
// (one diagnostic per missing field).
type exportedWalk struct {
	A uint64
	B uint64
	C uint64
}

func (e *exportedWalk) SnapshotWalk(w *Walker) { // want "does not visit field B" "does not visit field C"
	w.Uint64(&e.A)
}

// looped accesses fields through range loops and index expressions;
// any selector on the receiver counts as a visit.
type looped struct {
	rows []uint64
	tick uint64
}

func (l *looped) snapshotWalk(w *Walker) {
	for i := range l.rows {
		w.Uint64(&l.rows[i])
	}
	w.Uint64(&l.tick)
}

// delegated visits a field by calling its own walk method: still a
// selector on the receiver, still a visit.
type inner struct {
	x uint64
}

func (in *inner) snapshotWalk(w *Walker) {
	w.Uint64(&in.x)
}

type delegated struct {
	nested inner
}

func (d *delegated) snapshotWalk(w *Walker) {
	d.nested.snapshotWalk(w)
}

// withContext takes the walker first and context after it: still a
// snapshot walk, so its missing field is reported.
type withContext struct {
	valid bool
	seq   uint64
}

func (c *withContext) snapshotWalk(w *Walker, n int) { // want "snapshot walk for withContext does not visit field seq"
	w.Bool(&c.valid)
}

// notWalker has the right method name but the wrong parameter type; it
// is not a snapshot walk and its missing fields must not be reported.
type notWalker struct{}

type otherParam struct {
	ignored uint64
}

func (o *otherParam) snapshotWalk(n *notWalker) {}

// empty has no fields; an empty walk is clean.
type empty struct{}

func (empty) SnapshotWalk(*Walker) {}

// allowed demonstrates the escape hatch for a deliberate skip.
type allowed struct {
	a uint64
	b uint64
}

//ppflint:allow snapshot b is reconstructed by the caller
func (al *allowed) snapshotWalk(w *Walker) {
	w.Uint64(&al.a)
}

// resetWhole: a whole-receiver reassignment covers every field, present
// and future, by construction — clean.
type resetWhole struct {
	weights uint64
	hist    bool
}

func (r *resetWhole) snapshotWalk(w *Walker) {
	w.Uint64(&r.weights)
	w.Bool(&r.hist)
}

func (r *resetWhole) Reset() {
	*r = resetWhole{}
}

// resetFieldwise mentions every field explicitly: also clean.
type resetFieldwise struct {
	weights uint64
	hist    bool
}

func (r *resetFieldwise) snapshotWalk(w *Walker) {
	w.Uint64(&r.weights)
	w.Bool(&r.hist)
}

func (r *resetFieldwise) Reset() {
	r.weights = 0
	r.hist = false
}

// resetPartial forgets a field: the re-lease state-leak bug the Reset
// rule exists for.
type resetPartial struct {
	weights uint64
	hist    bool
}

func (r *resetPartial) snapshotWalk(w *Walker) {
	w.Uint64(&r.weights)
	w.Bool(&r.hist)
}

func (r *resetPartial) Reset() { // want "Reset on snapshot-walked resetPartial does not touch field hist"
	r.weights = 0
}

// resetUnwalked is not snapshot-walked, so its partial Reset is not the
// analyzer's business.
type resetUnwalked struct {
	weights uint64
	hist    bool
}

func (r *resetUnwalked) Reset() {
	r.weights = 0
}

// resetConfig: fields the walk parks in Static are configuration, so a
// Reset that keeps them is clean without any annotation.
type resetConfig struct {
	weights uint64
	degree  uint64
}

func (r *resetConfig) snapshotWalk(w *Walker) {
	w.Uint64(&r.weights)
	w.Static(r.degree)
}

func (r *resetConfig) Reset() {
	r.weights = 0
}

// resetAllowed demonstrates the escape hatch on the Reset half for a
// walked (non-Static) field that deliberately survives a reset.
type resetAllowed struct {
	weights uint64
	wiring  bool
}

func (r *resetAllowed) snapshotWalk(w *Walker) {
	w.Uint64(&r.weights)
	w.Bool(&r.wiring)
}

//ppflint:allow snapshot wiring survives a reset deliberately
func (r *resetAllowed) Reset() {
	r.weights = 0
}
