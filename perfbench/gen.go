package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"

	tomography "repro"
)

// The topologies are committed fixtures, written once by -write-fixtures
// with Topology.MarshalJSON, so that reseeding the program's own simulator
// or scenario registry never changes a workload's inputs. The daemon gets
// them inline through POST /v1/tenants; the replay child decodes the same
// bytes.
//
//go:embed fixtures/*.json
var fixtureFS embed.FS

// fixture is one committed topology: its JSON document, the decoded
// topology and the per-link path coverage the generator ORs into rows.
type fixture struct {
	name     string
	doc      []byte
	top      *tomography.Topology
	numPaths int
	numLinks int
	wpr      int        // words per packed path row
	lwpr     int        // words per packed link row
	cover    [][]uint64 // cover[l]: packed set of paths through link l
	sets     [][]int    // correlation sets, singletons included
}

func loadFixture(name string) (*fixture, error) {
	doc, err := fixtureFS.ReadFile("fixtures/" + name + ".json")
	if err != nil {
		return nil, err
	}
	top, err := decodeTopology(doc)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", name, err)
	}
	f := &fixture{name: name, doc: doc, top: top, numPaths: top.NumPaths(), numLinks: top.NumLinks()}
	f.wpr = (f.numPaths + 63) / 64
	f.lwpr = (f.numLinks + 63) / 64
	f.cover = make([][]uint64, f.numLinks)
	for l := range f.cover {
		f.cover[l] = make([]uint64, f.wpr)
	}
	for p, path := range top.Paths() {
		for _, l := range path.Links {
			f.cover[l][p/64] |= 1 << uint(p%64)
		}
	}
	for s := 0; s < top.NumSets(); s++ {
		f.sets = append(f.sets, top.CorrelationSet(s).Indices())
	}
	return f, nil
}

// decodeTopology rebuilds a fixture document (the Topology.MarshalJSON
// format) through the facade's validating Builder — the same steps the
// daemon's inline registration takes, without importing its decoder.
func decodeTopology(doc []byte) (*tomography.Topology, error) {
	var jt struct {
		NumNodes int `json:"num_nodes"`
		Links    []struct {
			Src, Dst int
			Name     string
		} `json:"links"`
		Paths []struct {
			Links []int  `json:"links"`
			Name  string `json:"name"`
		} `json:"paths"`
		Sets [][]int `json:"correlation_sets"`
	}
	if err := json.Unmarshal(doc, &jt); err != nil {
		return nil, err
	}
	b := tomography.NewBuilder()
	b.AddNodes(jt.NumNodes)
	for _, l := range jt.Links {
		b.AddLink(tomography.NodeID(l.Src), tomography.NodeID(l.Dst), l.Name)
	}
	for _, p := range jt.Paths {
		b.AddPath(p.Name, linkIDs(p.Links)...)
	}
	for _, s := range jt.Sets {
		b.Correlate(linkIDs(s)...)
	}
	return b.Build()
}

func linkIDs(ids []int) []tomography.LinkID {
	out := make([]tomography.LinkID, len(ids))
	for i, id := range ids {
		out[i] = tomography.LinkID(id)
	}
	return out
}

// rng is splitmix64: tiny, seedable, and independent of math/rand, so the
// benchmark's inputs depend only on its own seed.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x6A09E667F3BCC909} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// threshold turns a probability into a uint64 cut: next() < threshold(p)
// happens with probability p.
func threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	return uint64(p * (1 << 63) * 2)
}

// markov is the benchmark's load generator: every correlation set carries
// an on/off Markov modulator; a link is congested with its on-probability
// while its set's modulator is on and with its (small) off-probability
// otherwise, so links in one set are correlated and sets are independent.
// A path is congested iff any of its links is.
type markov struct {
	f       *fixture
	r       *rng
	on      []bool   // modulator state per set
	up      []uint64 // P(off→on) per set, as thresholds
	down    []uint64 // P(on→off) per set
	onCut   []uint64 // per-link congestion threshold while the set is on
	offCut  []uint64 // … and while it is off
	linkRow []uint64 // scratch: the current snapshot's congested links
}

// newMarkov sizes the modulators from the fixture's name, so every seed
// runs the same network, and draws the snapshots from seed.
func newMarkov(f *fixture, seed uint64) *markov {
	h := fnv.New64a()
	h.Write([]byte(f.name))
	pr := newRNG(h.Sum64())
	g := &markov{f: f, r: newRNG(seed)}
	g.on = make([]bool, len(f.sets))
	g.up = make([]uint64, len(f.sets))
	g.down = make([]uint64, len(f.sets))
	g.onCut = make([]uint64, f.numLinks)
	g.offCut = make([]uint64, f.numLinks)
	g.linkRow = make([]uint64, f.lwpr)
	for s, links := range f.sets {
		// Bursts of 100–400 snapshots with a 10–25% stationary on-share:
		// day/night-scale congestion relative to a 256-snapshot window.
		burst := 100 + 300*pr.float()
		share := 0.10 + 0.15*pr.float()
		g.down[s] = threshold(1 / burst)
		g.up[s] = threshold(share / (1 - share) / burst)
		g.on[s] = g.r.float() < share
		for _, l := range links {
			g.onCut[l] = threshold(0.3 + 0.4*pr.float())
			g.offCut[l] = threshold(0.02 * pr.float())
		}
	}
	return g
}

// next writes one snapshot's packed congested-path row into row (f.wpr
// words) and returns the snapshot's congested-link row, valid until the
// next call.
func (g *markov) next(row []uint64) []uint64 {
	for i := range row {
		row[i] = 0
	}
	for i := range g.linkRow {
		g.linkRow[i] = 0
	}
	for s, links := range g.f.sets {
		if g.on[s] {
			g.on[s] = g.r.next() >= g.down[s]
		} else {
			g.on[s] = g.r.next() < g.up[s]
		}
		cut := g.offCut
		if g.on[s] {
			cut = g.onCut
		}
		for _, l := range links {
			if g.r.next() < cut[l] {
				g.linkRow[l/64] |= 1 << uint(l%64)
			}
		}
	}
	for w, word := range g.linkRow {
		for word != 0 {
			l := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			for i, c := range g.f.cover[l] {
				row[i] |= c
			}
		}
	}
	return g.linkRow
}

// stream generates n snapshots: packed congested-path rows (f.wpr words
// each) and the ground-truth congested-link rows (f.lwpr words each).
func (g *markov) stream(n int) (paths, links []uint64) {
	paths = make([]uint64, n*g.f.wpr)
	links = make([]uint64, n*g.f.lwpr)
	for t := 0; t < n; t++ {
		copy(links[t*g.f.lwpr:], g.next(paths[t*g.f.wpr:(t+1)*g.f.wpr]))
	}
	return paths, links
}

// truth keeps the realized per-link congestion counts of a sliding window
// over a link-row stream: the ground truth an estimate over the same
// window is scored against.
type truth struct {
	lwpr   int
	counts []int
	rows   int
}

func newTruth(numLinks, lwpr int) *truth {
	return &truth{lwpr: lwpr, counts: make([]int, numLinks)}
}

// add counts one link row in (sign 1) or out (sign -1) of the window.
func (tr *truth) add(row []uint64, sign int) {
	for w, word := range row {
		for word != 0 {
			tr.counts[w*64+bits.TrailingZeros64(word)] += sign
			word &= word - 1
		}
	}
	tr.rows += sign
}

// absError is the mean absolute difference between estimated link
// congestion probabilities and the window's realized frequencies.
func (tr *truth) absError(probs []float64) float64 {
	sum := 0.0
	for l, c := range tr.counts {
		sum += math.Abs(probs[l] - float64(c)/float64(tr.rows))
	}
	return sum / float64(len(tr.counts))
}
