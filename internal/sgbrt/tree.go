// Package sgbrt implements Stochastic Gradient Boosted Regression Trees
// (Friedman 2002), the ensemble learner CounterMiner uses to model IPC
// as a function of event values (§III-C). It also implements the
// relative-influence event importance of eq. (10)/(11): the importance
// of a feature in one tree is the sum of squared improvements over all
// splits on that feature, averaged across the ensemble and normalised
// to percentages.
//
// Trees are induced over histograms, as in LightGBM (Ke et al. 2017):
//
//   - Binning. Bin quantises every column once into at most maxBins
//     (64) equal-frequency bins over its distinct values; a column with
//     at most 64 distinct values gets one bin per value, so it splits
//     exactly where exact CART would. A bin edge is the midpoint
//     between the largest value of one bin and the smallest of the
//     next, and it is the raw threshold a split on that edge stores, so
//     Tree, Predict and the serialised form are the same as for exact
//     split search. Binning is the caller's to share: the ranker bins
//     its training split once per analysis and every EIR refit takes a
//     column subset of it.
//   - Histograms. A node holds one (sum of targets, row count) entry
//     per bin per feature. Only the smaller child of a split is built
//     from its rows; the larger child is the parent minus the smaller,
//     computed in place, with an empty bin's sum reset to an exact
//     zero. Rows are kept in one index array that each split
//     partitions once.
//   - Split scan. The gain of a split is ls²/nl + rs²/nr − s²/n, read
//     from a per-builder reciprocal table, so the scan never divides.
//     A candidate must beat the running best by more than gainEpsilon:
//     equal-gain splits go to the lowest feature index, then to the
//     lowest bin edge.
//
// Trees grow level by level. The histogram work of a whole level fans
// out over contiguous feature blocks, one task per worker; each
// feature's candidate lands in its own slot and the reduce runs
// serially in feature order, so the induced tree is identical for
// every worker count.
package sgbrt

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"counterminer/internal/parallel"
)

// maxBins bounds the number of histogram bins per feature.
const maxBins = 64

// gainEpsilon is the minimum gain margin for one split candidate to
// beat another; candidates within it are ties and lose to the earlier
// (lower-edge, then lower-feature-index) candidate.
const gainEpsilon = 1e-12

// parallelWork is the minimum histogram work of a fan-out, in
// histogram entries touched (rows filled plus bins scanned, summed
// over features), before it splits across workers; below it the
// goroutine handoff costs more than the work.
const parallelWork = 1 << 15

// node is one node of a CART regression tree stored in a flat slice.
type node struct {
	// feature is the split feature index, or -1 for a leaf.
	feature int
	// threshold sends x[feature] <= threshold left, otherwise right.
	threshold float64
	// left and right index the children in Tree.nodes (leaves: -1).
	left, right int
	// value is the leaf prediction (mean of targets in the region).
	value float64
	// improvement is the squared-error reduction achieved by this
	// node's split (0 for leaves), the P²(k) of eq. (10).
	improvement float64
	// samples is the number of training rows that reached the node.
	samples int
}

// Tree is one CART regression tree.
type Tree struct {
	nodes []node
	// nFeatures is the expected input dimensionality.
	nFeatures int
}

// TreeParams controls tree induction.
type TreeParams struct {
	// MaxDepth limits tree depth (a stump has depth 1). Values <= 0
	// default to 3, a common boosting depth.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// FeatureMask, when non-nil, restricts splits to features with
	// mask[f] == true (per-tree column subsampling).
	FeatureMask []bool
	// Workers bounds the feature-parallel histogram work; <= 0 uses
	// GOMAXPROCS. The induced tree is identical for every worker
	// count.
	Workers int
}

func (p TreeParams) withDefaults() TreeParams {
	if p.MaxDepth <= 0 {
		p.MaxDepth = 3
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 1
	}
	return p
}

// Binned is a training matrix quantised for histogram induction: the
// raw columns (for stage updates), each column's bin codes, and each
// column's bin edges. It is immutable once built, so one Binned can
// back any number of fits, concurrent ones included.
type Binned struct {
	n     int
	cols  [][]float64 // cols[f][row], raw values
	codes [][]uint8   // codes[f][row], bin of the raw value
	edges [][]float64 // edges[f][b] separates bin b from bin b+1
}

// Bin validates X (non-empty, rectangular, finite) and quantises every
// column into at most 64 bins. Columns bin independently, concurrently
// on up to workers goroutines (<= 0 uses GOMAXPROCS); the result does
// not depend on the worker count.
func Bin(X [][]float64, workers int) (*Binned, error) {
	n := len(X)
	if n == 0 {
		return nil, errors.New("sgbrt: empty training set")
	}
	nf := len(X[0])
	for i, row := range X {
		if len(row) != nf {
			return nil, fmt.Errorf("sgbrt: ragged row %d", i)
		}
		if !validRow(row) {
			return nil, fmt.Errorf("sgbrt: row %d contains NaN/Inf", i)
		}
	}
	bm := &Binned{
		n:     n,
		cols:  make([][]float64, nf),
		codes: make([][]uint8, nf),
		edges: make([][]float64, nf),
	}
	raw := make([]float64, nf*n)
	codes := make([]uint8, nf*n)
	for f := range bm.cols {
		bm.cols[f] = raw[f*n : (f+1)*n]
		bm.codes[f] = codes[f*n : (f+1)*n]
	}
	for i, row := range X {
		for f, v := range row {
			bm.cols[f][i] = v
		}
	}
	parallel.ForEach(nf, workers, func(f int) error {
		bm.edges[f] = binColumn(bm.cols[f], bm.codes[f])
		return nil
	})
	return bm, nil
}

// binColumn returns the bin edges of one column and writes every
// row's bin code. The distinct values split into min(distinct, maxBins)
// runs of near-equal length; a row's code is the number of edges below
// its value, so code <= b exactly when value <= edges[b].
func binColumn(col []float64, codes []uint8) []float64 {
	u := slices.Clone(col)
	slices.Sort(u)
	u = slices.Compact(u)
	d := len(u)
	nb := min(d, maxBins)
	edges := make([]float64, nb-1)
	for b := range edges {
		first := (b + 1) * d / nb // first distinct value of bin b+1
		edges[b] = (u[first-1] + u[first]) / 2
	}
	for i, v := range col {
		codes[i] = uint8(sort.SearchFloat64s(edges, v))
	}
	return edges
}

// Columns returns the matrix restricted to the given columns, in the
// given order. It shares storage with bm, and fitting it gives the
// same ensemble as binning the column subset afresh, because each
// column's bins depend on that column alone.
func (bm *Binned) Columns(idx []int) *Binned {
	sub := &Binned{
		n:     bm.n,
		cols:  make([][]float64, len(idx)),
		codes: make([][]uint8, len(idx)),
		edges: make([][]float64, len(idx)),
	}
	for j, f := range idx {
		sub.cols[j], sub.codes[j], sub.edges[j] = bm.cols[f], bm.codes[f], bm.edges[f]
	}
	return sub
}

// bin is one histogram entry: the target sum and row count of the
// rows whose feature value falls in the bin.
type bin struct {
	sum float64
	cnt int
}

// splitCand is one feature's best split of a node.
type splitCand struct {
	gain float64
	bin  int // the split sends codes <= bin left
	ok   bool
}

// builder grows trees level by level over a Binned matrix, reusing
// every induction buffer (row partition, histogram and candidate
// slots, level lists) across nodes and across trees, so fitting a tree
// allocates only its node slice.
type builder struct {
	bm *Binned
	y  []float64 // fit target, indexed by row
	p  TreeParams

	// off[f] is the offset of feature f's bins in a histogram;
	// off[nf] is the histogram length.
	off []int
	// blocks are the contiguous feature ranges [blocks[w], blocks[w+1])
	// each worker takes in a fan-out, balanced by bin count.
	blocks []int
	// inv[c] is 1/c, so the split scan never divides.
	inv []float64
	// rows is the working row partition of the tree being grown and ys
	// the targets in the same order; each split partitions a segment of
	// both in place, with scratch and sy as the stable-partition buffers.
	rows, scratch []int
	ys, sy        []float64
	// hists[s] and cands[s] are slot s's histogram and per-feature
	// split candidates; free holds the slots no pending node owns.
	hists [][]bin
	cands [][]splitCand
	free  []int
	// level holds the nodes of the depth being split, next collects
	// the depth below, and jobs the histogram work between the two.
	level, next []pending
	jobs        []childWork
}

// pending is a node that may split, with its histogram and candidates
// ready in slot.
type pending struct {
	node, lo, hi, slot int
	sum                float64
}

// childWork is the histogram work for one split's children: fill the
// smaller child's histogram from its rows [lo, hi) into slot small,
// derive the larger child's in slot parent (in place over the parent's
// histogram), and scan the children that may split further.
type childWork struct {
	small, parent int
	lo, hi        int
	left, right   pending
	scanL, scanR  bool
}

// newBuilder sizes all working buffers for fits on bm with target y
// (len(y) == bm.n).
func newBuilder(bm *Binned, y []float64, p TreeParams) *builder {
	p = p.withDefaults()
	n, nf := bm.n, len(bm.cols)
	b := &builder{bm: bm, y: y, p: p}
	b.off = make([]int, nf+1)
	for f, e := range bm.edges {
		b.off[f+1] = b.off[f] + len(e) + 1
	}
	total := b.off[nf]
	workers := min(parallel.Workers(p.Workers), max(nf, 1))
	b.blocks = make([]int, workers+1)
	for w, f := 1, 0; w <= workers; w++ {
		for f < nf && b.off[f] < w*total/workers {
			f++
		}
		b.blocks[w] = f
	}
	b.blocks[workers] = nf
	b.inv = make([]float64, n+1)
	for c := 1; c <= n; c++ {
		b.inv[c] = 1 / float64(c)
	}
	b.rows = make([]int, n)
	b.ys = make([]float64, n)
	b.scratch = make([]int, n)
	b.sy = make([]float64, n)
	return b
}

// acquire returns a free histogram slot, allocating one on first use,
// so the slot count follows the widest level trees actually reach.
func (b *builder) acquire() int {
	if k := len(b.free); k > 0 {
		s := b.free[k-1]
		b.free = b.free[:k-1]
		return s
	}
	b.hists = append(b.hists, make([]bin, b.off[len(b.off)-1]))
	b.cands = append(b.cands, make([]splitCand, len(b.bm.cols)))
	return len(b.hists) - 1
}

func (b *builder) release(s int) { b.free = append(b.free, s) }

// build grows one tree over the given rows (each in [0, bm.n));
// rows itself is not modified.
func (b *builder) build(rows []int) (*Tree, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("sgbrt: empty sample index")
	}
	b.rows = append(b.rows[:0], rows...)
	b.ys = b.ys[:n]
	sum := 0.0
	for k, r := range b.rows {
		b.ys[k] = b.y[r]
		sum += b.ys[k]
	}
	maxNodes := 1
	for d := 0; d <= b.p.MaxDepth && maxNodes < 2*n-1; d++ {
		maxNodes = 2*maxNodes + 1
	}
	maxNodes = min(maxNodes, 2*n-1)
	t := &Tree{nFeatures: len(b.bm.cols), nodes: make([]node, 0, maxNodes)}
	b.leaf(t, sum, n)
	b.level = b.level[:0]
	if b.splittable(n, 1) {
		root := pending{node: 0, lo: 0, hi: n, slot: b.acquire(), sum: sum}
		b.fanOut(n+maxBins, func(flo, fhi int) {
			for f := flo; f < fhi; f++ {
				if !b.active(f) {
					b.cands[root.slot][f] = splitCand{}
					continue
				}
				h := b.hist(root.slot, f)
				b.fill(h, f, 0, n)
				b.cands[root.slot][f] = b.scan(h, sum, n)
			}
		})
		b.level = append(b.level, root)
	}
	for depth := 1; len(b.level) > 0; depth++ {
		b.splitLevel(t, depth)
	}
	return t, nil
}

// leaf appends a leaf over cnt rows with target sum and returns its
// index.
func (b *builder) leaf(t *Tree, sum float64, cnt int) int {
	t.nodes = append(t.nodes, node{
		feature: -1, left: -1, right: -1,
		value: sum / float64(cnt), samples: cnt,
	})
	return len(t.nodes) - 1
}

// splittable reports whether a node of cnt rows at depth may split.
func (b *builder) splittable(cnt, depth int) bool {
	return depth <= b.p.MaxDepth && cnt >= 2*b.p.MinLeaf
}

// active reports whether feature f may be split on in the current tree.
func (b *builder) active(f int) bool {
	return b.p.FeatureMask == nil || b.p.FeatureMask[f]
}

// hist returns feature f's bins in the histogram of slot s.
func (b *builder) hist(s, f int) []bin { return b.hists[s][b.off[f]:b.off[f+1]] }

// splitLevel splits every pending node at depth, appending both
// children of each split, then readies the histograms and candidates
// of the children that may split further in one fan-out; those become
// the next level.
func (b *builder) splitLevel(t *Tree, depth int) {
	b.jobs, b.next = b.jobs[:0], b.next[:0]
	work := 0
	for _, nd := range b.level {
		feat, best, ok := b.pick(nd.slot)
		if !ok {
			b.release(nd.slot)
			continue
		}
		nl, sumL, sumR := b.partition(nd.lo, nd.hi, feat, best.bin)
		mid := nd.lo + nl
		left := pending{node: b.leaf(t, sumL, nl), lo: nd.lo, hi: mid, sum: sumL}
		right := pending{node: b.leaf(t, sumR, nd.hi-mid), lo: mid, hi: nd.hi, sum: sumR}
		p := &t.nodes[nd.node]
		p.feature, p.threshold, p.improvement = feat, b.bm.edges[feat][best.bin], best.gain
		p.left, p.right = left.node, right.node

		j := childWork{
			parent: nd.slot,
			scanL:  b.splittable(nl, depth+1),
			scanR:  b.splittable(nd.hi-mid, depth+1),
		}
		if !j.scanL && !j.scanR {
			b.release(nd.slot)
			continue
		}
		j.small = b.acquire()
		if nl <= nd.hi-mid {
			left.slot, right.slot, j.lo, j.hi = j.small, j.parent, left.lo, left.hi
		} else {
			left.slot, right.slot, j.lo, j.hi = j.parent, j.small, right.lo, right.hi
		}
		j.left, j.right = left, right
		b.jobs = append(b.jobs, j)
		work += j.hi - j.lo + 3*maxBins
		if j.scanL {
			b.next = append(b.next, left)
		}
		if j.scanR {
			b.next = append(b.next, right)
		}
	}
	if len(b.jobs) > 0 {
		b.fanOut(work, func(flo, fhi int) {
			for f := flo; f < fhi; f++ {
				for i := range b.jobs {
					b.childHists(&b.jobs[i], f)
				}
			}
		})
	}
	for _, j := range b.jobs {
		if !j.scanL {
			b.release(j.left.slot)
		}
		if !j.scanR {
			b.release(j.right.slot)
		}
	}
	b.level, b.next = b.next, b.level
}

// pick reduces a node's per-feature candidates serially in feature
// order, so equal-gain splits go to the lowest feature index.
func (b *builder) pick(slot int) (feat int, best splitCand, ok bool) {
	for f, c := range b.cands[slot] {
		if c.ok && (!best.ok || c.gain > best.gain+gainEpsilon) {
			feat, best = f, c
		}
	}
	return feat, best, best.ok
}

// partition stably reorders the segment [lo, hi) of rows and ys so
// rows with codes[feat] <= split come first, and returns the left
// count and both sides' target sums.
func (b *builder) partition(lo, hi, feat, split int) (nl int, sumL, sumR float64) {
	codes := b.bm.codes[feat]
	rows, ys := b.rows[lo:hi], b.ys[lo:hi]
	nr := 0
	for k, r := range rows {
		if int(codes[r]) <= split {
			rows[nl], ys[nl] = r, ys[k]
			sumL += ys[k]
			nl++
		} else {
			b.scratch[nr], b.sy[nr] = r, ys[k]
			sumR += ys[k]
			nr++
		}
	}
	copy(rows[nl:], b.scratch[:nr])
	copy(ys[nl:], b.sy[:nr])
	return nl, sumL, sumR
}

// childHists does feature f's share of one split's child work.
func (b *builder) childHists(j *childWork, f int) {
	if !b.active(f) {
		b.cands[j.left.slot][f], b.cands[j.right.slot][f] = splitCand{}, splitCand{}
		return
	}
	small, large := b.hist(j.small, f), b.hist(j.parent, f)
	b.fill(small, f, j.lo, j.hi)
	for i := range large {
		sum, cnt := large[i].sum-small[i].sum, large[i].cnt-small[i].cnt
		if cnt == 0 {
			sum = 0 // no rounding residue in an empty bin
		}
		large[i] = bin{sum, cnt}
	}
	if j.scanL {
		b.cands[j.left.slot][f] = b.scan(b.hist(j.left.slot, f), j.left.sum, j.left.hi-j.left.lo)
	}
	if j.scanR {
		b.cands[j.right.slot][f] = b.scan(b.hist(j.right.slot, f), j.right.sum, j.right.hi-j.right.lo)
	}
}

// fanOut runs fn over every feature, split into the builder's
// contiguous per-worker blocks when the work — perFeature histogram
// entries touched per feature, times the feature count — repays the
// handoff. The caller's goroutine takes the first block.
func (b *builder) fanOut(perFeature int, fn func(flo, fhi int)) {
	nf := len(b.bm.cols)
	nb := len(b.blocks) - 1
	if nb < 2 || perFeature*nf < parallelWork {
		fn(0, nf)
		return
	}
	var wg sync.WaitGroup
	wg.Add(nb - 1)
	for w := 1; w < nb; w++ {
		go func() {
			defer wg.Done()
			fn(b.blocks[w], b.blocks[w+1])
		}()
	}
	fn(b.blocks[0], b.blocks[1])
	wg.Wait()
}

// fill builds feature f's histogram h over the row segment [lo, hi).
func (b *builder) fill(h []bin, f, lo, hi int) {
	clear(h)
	codes := b.bm.codes[f]
	ys := b.ys[lo:hi]
	for k, r := range b.rows[lo:hi] {
		e := &h[codes[r]]
		e.sum += ys[k]
		e.cnt++
	}
}

// scan finds the best split of one feature's histogram for a node of n
// rows with target sum s. It ranks edges by ls²/nl + rs²/nr, which is
// the gain plus the node's constant s²/n; an edge must beat the best so
// far by more than gainEpsilon. An empty bin holds an exact zero sum,
// so the edge after it scores exactly as the edge before it and loses
// the tie.
func (b *builder) scan(h []bin, s float64, n int) splitCand {
	minLeaf, inv := b.p.MinLeaf, b.inv
	parent := s * s * inv[n]
	bar, best := parent+gainEpsilon, -1
	score := 0.0
	ls, nl := 0.0, 0
	for i, e := range h[:len(h)-1] {
		ls += e.sum
		nl += e.cnt
		nr := n - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rs := s - ls
		if v := ls*ls*inv[nl] + rs*rs*inv[nr]; v > bar {
			score, best, bar = v, i, v+gainEpsilon
		}
	}
	if best < 0 {
		return splitCand{}
	}
	return splitCand{gain: score - parent, bin: best, ok: true}
}

// Predict returns the tree's prediction for one feature vector.
func (t *Tree) Predict(x []float64) (float64, error) {
	if len(x) != t.nFeatures {
		return 0, fmt.Errorf("sgbrt: predict with %d features, tree has %d", len(x), t.nFeatures)
	}
	return t.predictUnchecked(x), nil
}

// predictUnchecked is the internal fast path shared by the boosting
// stage updates and the bulk scorers: it assumes len(x) == t.nFeatures.
func (t *Tree) predictUnchecked(x []float64) float64 {
	i := 0
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// predictRow traverses the tree for one training row of the
// column-major view, avoiding any per-row vector assembly.
func (t *Tree) predictRow(cols [][]float64, row int) float64 {
	i := 0
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if cols[nd.feature][row] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Depth returns the maximum depth of the tree (a single leaf has depth 1).
func (t *Tree) Depth() int {
	var walk func(i, d int) int
	walk = func(i, d int) int {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return d
		}
		l := walk(nd.left, d+1)
		r := walk(nd.right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0, 1)
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int {
	n := 0
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			n++
		}
	}
	return n
}

// featureImportance accumulates per-feature squared improvements —
// I²_j(T) of eq. (10) — into imp, which must have length nFeatures.
func (t *Tree) featureImportance(imp []float64) {
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.feature >= 0 {
			imp[nd.feature] += nd.improvement
		}
	}
}

// guard against NaN thresholds sneaking in from pathological inputs.
func validRow(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
