package compose

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/search"
	"dexa/internal/typesys"
)

// View is the catalog-state half of planning: the available modules'
// primary-signature groups, each group's behavior classes, and a memo of
// the signature chains and verified plans derived from them (planMemo).
// None of it depends on more of the request than its concepts and depth,
// so a server keeps one View per catalog version and plans every
// /compose call over it; a Planner without one builds a fresh View per
// Plan call. A group is partitioned into classes the first time a chain
// needs it and kept from then on. A View is safe for concurrent Plan
// calls.
type View struct {
	ont    *ontology.Ontology
	keyed  KeyedFunc
	groups []*sigGroup // ordered by signature key
	// classIDs numbers behavior classes as they are partitioned; a child
	// view (see avoiding) shares its parent's.
	classIDs *atomic.Uint32
	memo     *planMemo
}

// planMemo is what planning derives from a view and the request's
// concepts alone, kept for the view's lifetime:
//
//   - chains: the signature chains from In to Out within a depth, keyed
//     by (In, Out, depth), the depth clamped to the number of groups;
//   - plans: each built plan — workflow, steps, rationale, verification
//     verdict and witness — keyed by In, Out and the behavior classes it
//     picked (see planKey), and once rendered its rendering (see
//     Plan.Rendered). Its per-call rank is not kept;
//   - likes: each behavior class's like= score, keyed by the Like
//     module's ID, its keyed set and the class (see likeKey).
//
// A call whose MustAvoid thinned the groups plans over a child view with
// a memo of its own. A plan whose verification failed in enactment is
// not kept: a module may fail transiently.
type planMemo struct {
	mu     sync.Mutex
	chains map[chainKey][][]*sigGroup
	plans  map[string]Plan
	likes  map[likeKey]float64
}

// likeKey names one like= score: the Like module, the keyed set it was
// scored from (sets are immutable and the key holds it, so the same
// pointer means the same content) and the view-wide id of the class.
type likeKey struct {
	like  string
	set   *dataexample.KeyedSet
	class uint32
}

type chainKey struct {
	in, out string
	depth   int
}

func newPlanMemo() *planMemo {
	return &planMemo{chains: map[chainKey][][]*sigGroup{}, plans: map[string]Plan{}, likes: map[likeKey]float64{}}
}

// chainsFor returns the chains at key and whether they came from the
// memo, searching with find on a miss. Searches run outside the lock;
// concurrent misses keep the first.
func (m *planMemo) chainsFor(key chainKey, find func() [][]*sigGroup) ([][]*sigGroup, bool) {
	m.mu.Lock()
	chains, ok := m.chains[key]
	m.mu.Unlock()
	if ok {
		return chains, true
	}
	chains = find()
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.chains[key]; ok {
		return prev, false
	}
	m.chains[key] = chains
	return chains, false
}

// planKey appends to buf the plans key of the classes idx picks from
// slots: In and Out, length-prefixed, then each class's view-wide id. A
// like= copy carries the id of the view class it was copied from.
func planKey(buf []byte, cs Constraints, slots [][]*behaviorClass, idx []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cs.In)))
	buf = append(buf, cs.In...)
	buf = binary.AppendUvarint(buf, uint64(len(cs.Out)))
	buf = append(buf, cs.Out...)
	for i, j := range idx {
		buf = binary.LittleEndian.AppendUint32(buf, slots[i][j].id)
	}
	return buf
}

// likeScore returns the score kept at key.
func (m *planMemo) likeScore(key likeKey) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	score, ok := m.likes[key]
	return score, ok
}

// keepLike stores score at key.
func (m *planMemo) keepLike(key likeKey, score float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.likes[key] = score
}

// plan returns the plan kept at key.
func (m *planMemo) plan(key []byte) (Plan, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	plan, ok := m.plans[string(key)]
	return plan, ok
}

// keep stores plan at key, unless a concurrent build stored one first,
// and returns the kept plan.
func (m *planMemo) keep(key []byte, plan Plan) Plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.plans[string(key)]; ok {
		return prev
	}
	plan.entry = new(entry)
	m.plans[string(key)] = plan
	return plan
}

// Memoised reports how many chain searches and built plans the view's
// memo holds.
func (v *View) Memoised() (chains, plans int) {
	v.memo.mu.Lock()
	defer v.memo.mu.Unlock()
	return len(v.memo.chains), len(v.memo.plans)
}

// signature is a primary (input, output) signature: structural type and
// concept on each side, rendered as key.
type signature struct {
	key       string
	inSem     string
	inStruct  typesys.Type
	outSem    string
	outStruct typesys.Type
}

// sigGroup is one primary-signature equivalence class: every member
// consumes the same (struct, concept) primary input and produces the
// same primary output. Members are task-identical *candidates*; behavior
// classes split them further.
type sigGroup struct {
	signature
	members []*module.Module // sorted by ID
	size    int              // member count, while grouping
	// next links the groups sharing this one's concept pair but not its
	// structural types, while grouping.
	next *sigGroup
	// thinned marks a child view's group that MustAvoid cut out of its
	// parent's.
	thinned bool

	once    sync.Once
	classes []*behaviorClass // set by once; ordered by size, then representative ID
}

// behaviorClass is a set of group members whose stored example sets are
// pairwise equivalent under an exact parameter mapping.
type behaviorClass struct {
	id        uint32 // unique within the view and its children; a like= copy keeps it
	rep       *module.Module
	members   []*module.Module // sorted by ID; rep is members[0]
	repSet    *dataexample.KeyedSet
	class     string  // fingerprint of the representative's set
	likeScore float64 // agreement with Constraints.Like, when set
}

// NewView buckets reg's available modules by primary signature: modules
// are bucketed by their (input, output) concept pair, each bucket is
// split by structural type equality, and the groups are ordered by their
// rendered signature. Available lists modules in ID order, so every
// group's members are too. keyed resolves a module's stored set when its
// group is first partitioned, and the Like module's once per Plan call.
func NewView(ont *ontology.Ontology, reg *registry.Registry, keyed KeyedFunc) *View {
	type semPair struct{ in, out string }
	type placement struct {
		m *module.Module
		g *sigGroup
	}
	mods := reg.Available()
	placed := make([]placement, 0, len(mods))
	buckets := make(map[semPair]*sigGroup, len(mods))
	v := &View{ont: ont, keyed: keyed, classIDs: new(atomic.Uint32), memo: newPlanMemo()}
	for _, m := range mods {
		if !m.Bound() || len(m.Inputs) == 0 || len(m.Outputs) == 0 {
			continue
		}
		in, outp := &m.Inputs[0], &m.Outputs[0]
		if in.Semantic == "" || outp.Semantic == "" {
			continue
		}
		sp := semPair{in.Semantic, outp.Semantic}
		g := buckets[sp]
		for g != nil && !(g.inStruct.Equal(in.Struct) && g.outStruct.Equal(outp.Struct)) {
			g = g.next
		}
		if g == nil {
			g = &sigGroup{signature: signature{
				key:   in.Struct.String() + "|" + in.Semantic + "->" + outp.Struct.String() + "|" + outp.Semantic,
				inSem: in.Semantic, inStruct: in.Struct, outSem: outp.Semantic, outStruct: outp.Struct,
			}, next: buckets[sp]}
			buckets[sp] = g
			v.groups = append(v.groups, g)
		}
		g.size++
		placed = append(placed, placement{m, g})
	}
	// Carve every group's member list out of one backing array.
	pool := make([]*module.Module, len(placed))
	for _, g := range v.groups {
		g.members, pool = pool[:0:g.size], pool[g.size:]
		g.next = nil
	}
	for _, pl := range placed {
		pl.g.members = append(pl.g.members, pl.m)
	}
	sort.Slice(v.groups, func(i, j int) bool { return v.groups[i].key < v.groups[j].key })
	return v
}

// set returns the module's keyed example set, or nil when it has none
// (an empty set counts as none).
func (v *View) set(id string) *dataexample.KeyedSet {
	if v.keyed == nil {
		return nil
	}
	set, _ := v.keyed(id)
	if set != nil && set.Len() == 0 {
		return nil
	}
	return set
}

// classesOf returns g's behavior classes, partitioning g on first use.
func (v *View) classesOf(g *sigGroup, sc *match.CompareScratch) []*behaviorClass {
	g.once.Do(func() { g.classes = v.partition(g.members, sc) })
	return g.classes
}

// avoiding returns the view to plan a MustAvoid request over: v itself
// when MustAvoid touches none of its members, and otherwise a child view
// with every module that carries a MustAvoid concept dropped. The child
// keeps v's untouched groups, classes and all; a group that lost members
// is replaced by a fresh group over the rest, partitioned anew when a
// chain needs it (a dropped member may have been the only link joining
// two classes), and a group left empty is dropped. The child's memo is
// its own, since its groups are, but it numbers classes from v's
// counter: a chain may mix v's groups with thinned ones, and a plan key
// names classes by id alone.
func (v *View) avoiding(avoid []string) *View {
	if len(avoid) == 0 {
		return v
	}
	whole := true
	out := make([]*sigGroup, 0, len(v.groups))
	for _, g := range v.groups {
		var kept []*module.Module
		for i, m := range g.members {
			switch {
			case carriesAny(v.ont, m, avoid):
				if kept == nil {
					kept = append(make([]*module.Module, 0, len(g.members)-1), g.members[:i]...)
				}
			case kept != nil:
				kept = append(kept, m)
			}
		}
		switch {
		case kept == nil:
			out = append(out, g)
			continue
		case len(kept) > 0:
			out = append(out, &sigGroup{signature: g.signature, members: kept, thinned: true})
		}
		whole = false
	}
	if whole {
		return v
	}
	return &View{ont: v.ont, keyed: v.keyed, groups: out, classIDs: v.classIDs, memo: newPlanMemo()}
}

// partition splits task-identical members into behavior classes: two
// members land in the same class when an exact parameter mapping exists
// and their keyed example sets are equivalent under it — the data-example
// "behaves identically" test. Members without stored examples stay in
// singleton classes (nothing is known about their behavior).
func (v *View) partition(members []*module.Module, sc *match.CompareScratch) []*behaviorClass {
	n := len(members)
	sets := make([]*dataexample.KeyedSet, n)
	for i, m := range members {
		sets[i] = v.set(m.ID)
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sets[i] == nil || sets[j] == nil {
				continue
			}
			mapping, ok := match.MapParameters(v.ont, members[i], members[j], match.ModeExact)
			if !ok {
				continue
			}
			res := match.CompareKeyedSetsScratch(sc, members[i].ID, members[j].ID, sets[i], sets[j], mapping)
			if res.Verdict == match.Equivalent {
				union(i, j)
			}
		}
	}
	byRoot := map[int]*behaviorClass{}
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		bc := byRoot[r]
		if bc == nil {
			bc = &behaviorClass{}
			byRoot[r] = bc
			roots = append(roots, r)
		}
		bc.members = append(bc.members, members[i])
	}
	sort.Ints(roots)
	classes := make([]*behaviorClass, 0, len(roots))
	for _, r := range roots {
		bc := byRoot[r]
		bc.id = v.classIDs.Add(1)
		bc.rep = bc.members[0]
		bc.repSet = sets[r]
		bc.class = search.FingerprintKeyed(bc.repSet)
		classes = append(classes, bc)
	}
	sort.SliceStable(classes, func(i, j int) bool {
		a, b := classes[i], classes[j]
		if len(a.members) != len(b.members) {
			return len(a.members) > len(b.members)
		}
		return a.rep.ID < b.rep.ID
	})
	return classes
}

// liked returns copies of classes scored against the Like module's
// stored examples and stable-sorted most agreeing first, so ties keep
// the view's size-then-ID order. Scores are read from and kept in the
// view's memo.
func (v *View) liked(classes []*behaviorClass, like *module.Module, likeSet *dataexample.KeyedSet, sc *match.CompareScratch) []*behaviorClass {
	scored := make([]behaviorClass, len(classes))
	out := make([]*behaviorClass, len(classes))
	for i, bc := range classes {
		scored[i] = *bc
		key := likeKey{like.ID, likeSet, bc.id}
		score, ok := v.memo.likeScore(key)
		if !ok {
			score = v.likeAgreement(like, likeSet, bc, sc)
			v.memo.keepLike(key, score)
		}
		scored[i].likeScore = score
		out[i] = &scored[i]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].likeScore > out[j].likeScore })
	return out
}

// likeAgreement scores a behavior class against the Like module's stored
// examples (0 when incomparable).
func (v *View) likeAgreement(like *module.Module, likeSet *dataexample.KeyedSet, bc *behaviorClass, sc *match.CompareScratch) float64 {
	if bc.repSet == nil {
		return 0
	}
	mapping, ok := match.MapParameters(v.ont, like, bc.rep, match.ModeExact)
	if !ok {
		return 0
	}
	return match.CompareKeyedSetsScratch(sc, like.ID, bc.rep.ID, likeSet, bc.repSet, mapping).Score()
}

// carriesAny reports whether some parameter of m has a concept subsumed
// by one of concepts.
func carriesAny(ont *ontology.Ontology, m *module.Module, concepts []string) bool {
	for _, concept := range concepts {
		if carries(ont, m, concept) {
			return true
		}
	}
	return false
}

// carries reports whether some parameter of m has a concept subsumed by
// concept.
func carries(ont *ontology.Ontology, m *module.Module, concept string) bool {
	for _, params := range [2][]module.Parameter{m.Inputs, m.Outputs} {
		for _, param := range params {
			if param.Semantic != "" && ont.Subsumes(concept, param.Semantic) {
				return true
			}
		}
	}
	return false
}
