package serve

import (
	"paradet/internal/resultstore"
)

// A Target owns result-store state on behalf of the serving layer —
// the storage half of the gateway/target split. The HTTP server is
// deliberately stateless above this seam: every read goes through
// Cell/Lookup and every cold simulation writes through Store, so
// scaling out to multiple targets (hash the fingerprint space, place
// by pool locality) changes the implementation behind this interface,
// not the API layer.
type Target interface {
	// Cell loads one cell by fingerprint from the warm layouts
	// (loose tree, then packed segments). It never simulates.
	Cell(fp string) (*resultstore.Cell, bool)
	// Lookup loads one cell by key from the warm layouts. It never
	// simulates.
	Lookup(k resultstore.Key) (*resultstore.Cell, bool)
	// Store exposes the backing store for campaign execution: cold
	// cells simulate through the campaign engine, which writes its
	// results (and memoised baselines) back here.
	Store() *resultstore.Store
	// Index lists the cells the store holds, across both layouts,
	// sorted by fingerprint.
	Index() ([]resultstore.IndexEntry, error)
}

// LocalTarget is the single-node Target: one result store on local
// disk, the layout every campaign tool in this repository shares.
type LocalTarget struct {
	store *resultstore.Store
}

// NewLocalTarget wraps an open store as a Target.
func NewLocalTarget(s *resultstore.Store) *LocalTarget {
	return &LocalTarget{store: s}
}

// Cell implements Target.
func (t *LocalTarget) Cell(fp string) (*resultstore.Cell, bool) {
	return t.store.GetFingerprint(fp)
}

// Lookup implements Target.
func (t *LocalTarget) Lookup(k resultstore.Key) (*resultstore.Cell, bool) {
	return t.store.Get(k)
}

// Store implements Target.
func (t *LocalTarget) Store() *resultstore.Store { return t.store }

// Index implements Target.
func (t *LocalTarget) Index() ([]resultstore.IndexEntry, error) {
	return t.store.Index()
}
