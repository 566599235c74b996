package gen

import (
	"fmt"
	"math"
	"sort"

	"crashsim/internal/graph"
	"crashsim/internal/temporal"
)

// Model selects the random-graph family a profile is generated from.
type Model int

const (
	// ModelPrefAttach is Barabási–Albert preferential attachment:
	// citation-style graphs with power-law in-degree (HepTh, HepPh).
	ModelPrefAttach Model = iota
	// ModelChungLu is a power-law expected-degree model: voting and
	// AS-router topologies (Wiki-Vote, AS-733, AS-Caida).
	ModelChungLu
	// ModelErdosRenyi is the uniform random graph, used for controlled
	// ablation workloads rather than any paper dataset.
	ModelErdosRenyi
)

func (m Model) String() string {
	switch m {
	case ModelPrefAttach:
		return "pref-attach"
	case ModelChungLu:
		return "chung-lu"
	case ModelErdosRenyi:
		return "erdos-renyi"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Profile describes a synthetic stand-in for one of the paper's datasets
// (Table III): same type, node count, edge count and snapshot count, with
// a generator matched to the dataset family. ChurnRate sets the fraction
// of edges inserted and deleted per snapshot transition.
type Profile struct {
	Name      string
	Directed  bool
	Nodes     int
	Edges     int
	Snapshots int
	Model     Model
	Exponent  float64 // power-law exponent for ModelChungLu
	ChurnRate float64
	// ActiveFraction is the fraction of snapshot transitions carrying
	// any change; real snapshot histories (e.g. daily AS dumps) have
	// many quiet days, the pruning opportunity CrashSim-T exploits.
	ActiveFraction float64
}

// Table III of the paper.
var profiles = []Profile{
	{Name: "as-733", Directed: false, Nodes: 6474, Edges: 13233, Snapshots: 733, Model: ModelChungLu, Exponent: 2.2, ChurnRate: 0.005, ActiveFraction: 0.4},
	{Name: "as-caida", Directed: true, Nodes: 26475, Edges: 106762, Snapshots: 122, Model: ModelChungLu, Exponent: 2.1, ChurnRate: 0.005, ActiveFraction: 0.6},
	{Name: "wiki-vote", Directed: true, Nodes: 7115, Edges: 103689, Snapshots: 100, Model: ModelChungLu, Exponent: 1.9, ChurnRate: 0.01, ActiveFraction: 0.7},
	{Name: "hepth", Directed: false, Nodes: 9877, Edges: 25998, Snapshots: 100, Model: ModelPrefAttach, ChurnRate: 0.01, ActiveFraction: 0.5},
	{Name: "hepph", Directed: true, Nodes: 34546, Edges: 421578, Snapshots: 100, Model: ModelPrefAttach, ChurnRate: 0.01, ActiveFraction: 0.5},
}

// servingProfiles are workload-scale profiles beyond the paper's Table
// III, sized so the serving stack (result cache, admission control,
// batch pipeline) is measured under real memory and cache pressure.
// They are reachable by name (ProfileByName) but deliberately excluded
// from Profiles(): the paper-reproduction experiments iterate
// Profiles(), and growing that set would silently change every
// committed table and figure.
var servingProfiles = []Profile{
	// web-1m: a directed power-law graph at 10⁶+ edges, the scale the
	// repo benchmark's serving workloads run against (scaled down).
	// Exponent and mean degree sit between wiki-vote and
	// as-caida, giving the hub-heavy in-degree skew that makes hot
	// Zipf sources expensive and the query cache worth measuring.
	{Name: "web-1m", Directed: true, Nodes: 300000, Edges: 1200000, Snapshots: 10, Model: ModelChungLu, Exponent: 2.0, ChurnRate: 0.002, ActiveFraction: 0.5},
}

// Profiles returns the five dataset profiles in the paper's order.
func Profiles() []Profile {
	return append([]Profile(nil), profiles...)
}

// ServingProfiles returns the workload-scale profiles (not part of the
// paper's Table III set).
func ServingProfiles() []Profile {
	return append([]Profile(nil), servingProfiles...)
}

// ProfileByName looks a profile up by its dataset name, covering both
// the paper's Table III set and the workload-scale serving profiles.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	for _, p := range servingProfiles {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, 0, len(profiles)+len(servingProfiles))
	for _, p := range profiles {
		names = append(names, p.Name)
	}
	for _, p := range servingProfiles {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return Profile{}, fmt.Errorf("gen: unknown profile %q (have %v)", name, names)
}

// Scaled returns a copy of p with node and edge counts multiplied by
// scale (>= some small floor so the graph stays meaningful) while keeping
// average degree, direction and model. Snapshot count is unchanged; use
// WithSnapshots to shrink histories.
func (p Profile) Scaled(scale float64) Profile {
	if scale <= 0 || scale >= 1 {
		return p
	}
	q := p
	q.Nodes = maxInt(64, int(math.Round(float64(p.Nodes)*scale)))
	q.Edges = maxInt(q.Nodes, int(math.Round(float64(p.Edges)*scale)))
	maxE := q.Nodes * (q.Nodes - 1)
	if !q.Directed {
		maxE /= 2
	}
	if q.Edges > maxE {
		q.Edges = maxE
	}
	return q
}

// WithSnapshots returns a copy of p with the snapshot count replaced.
func (p Profile) WithSnapshots(t int) Profile {
	q := p
	if t >= 1 {
		q.Snapshots = t
	}
	return q
}

// StaticEdges generates the base (snapshot 0) edge set of the profile.
func (p Profile) StaticEdges(seed uint64) ([]graph.Edge, error) {
	switch p.Model {
	case ModelPrefAttach:
		k := maxInt(1, int(math.Round(float64(p.Edges)/float64(p.Nodes))))
		return PreferentialAttachment(p.Nodes, k, p.Directed, seed)
	case ModelChungLu:
		return ChungLu(p.Nodes, p.Edges, p.Exponent, p.Directed, seed)
	case ModelErdosRenyi:
		return ErdosRenyi(p.Nodes, p.Edges, p.Directed, seed)
	default:
		return nil, fmt.Errorf("gen: profile %q has unknown model %v", p.Name, p.Model)
	}
}

// Static generates the profile's base snapshot as an immutable graph.
func (p Profile) Static(seed uint64) (*graph.Graph, error) {
	edges, err := p.StaticEdges(seed)
	if err != nil {
		return nil, err
	}
	return BuildStatic(p.Nodes, p.Directed, edges)
}

// Temporal generates the full temporal graph: the base snapshot evolved
// through p.Snapshots instants of churn.
func (p Profile) Temporal(seed uint64) (*temporal.Graph, error) {
	edges, err := p.StaticEdges(seed)
	if err != nil {
		return nil, err
	}
	return Churn(p.Nodes, p.Directed, edges, ChurnOptions{
		Snapshots:      p.Snapshots,
		AddRate:        p.ChurnRate,
		DelRate:        p.ChurnRate,
		ActiveFraction: p.ActiveFraction,
		Seed:           seed + 1,
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
