package main

import (
	"time"

	"repro/internal/registry"
	"repro/internal/xrand"
)

// timedDHT decorates the Chord DHT adapter with call counts and wall
// time per operation. It forwards every optional hook the registry
// looks for — registry.BulkJoiner and Stabilize — so the traced run
// takes exactly the untraced run's code path; without them the registry
// would fall back to sequential joins and skip stabilization.
type timedDHT struct {
	inner *registry.ChordDHT

	gets, updates, churns          uint64
	getTime, updateTime, churnTime time.Duration
	joinBulk, stabilize            time.Duration
}

var (
	_ registry.DHT             = (*timedDHT)(nil)
	_ registry.BulkJoiner      = (*timedDHT)(nil)
	_ interface{ Stabilize() } = (*timedDHT)(nil)
)

func newTimedDHT(inner *registry.ChordDHT) *timedDHT { return &timedDHT{inner: inner} }

// Join implements registry.DHT (a churn arrival).
func (d *timedDHT) Join(label string, rng *xrand.Source) (registry.DHTNode, error) {
	t := time.Now()
	n, err := d.inner.Join(label, rng)
	d.churnTime += time.Since(t)
	d.churns++
	return n, err
}

// Remove implements registry.DHT (a churn departure).
func (d *timedDHT) Remove(n registry.DHTNode, graceful bool) error {
	t := time.Now()
	err := d.inner.Remove(n, graceful)
	d.churnTime += time.Since(t)
	d.churns++
	return err
}

// Update implements registry.DHT.
func (d *timedDHT) Update(start registry.DHTNode, key uint64, itemID string, fn func(any) any) (int, error) {
	t := time.Now()
	hops, err := d.inner.Update(start, key, itemID, fn)
	d.updateTime += time.Since(t)
	d.updates++
	return hops, err
}

// Get implements registry.DHT.
func (d *timedDHT) Get(start registry.DHTNode, key uint64) (map[string]any, int, error) {
	t := time.Now()
	items, hops, err := d.inner.Get(start, key)
	d.getTime += time.Since(t)
	d.gets++
	return items, hops, err
}

// Stats implements registry.DHT.
func (d *timedDHT) Stats() registry.LookupStats { return d.inner.Stats() }

// JoinBulk implements registry.BulkJoiner (initial population).
func (d *timedDHT) JoinBulk(labels []string, rng *xrand.Source) ([]registry.DHTNode, error) {
	t := time.Now()
	nodes, err := d.inner.JoinBulk(labels, rng)
	d.joinBulk += time.Since(t)
	return nodes, err
}

// Stabilize forwards the registry's optional convergence hook.
func (d *timedDHT) Stabilize() {
	t := time.Now()
	d.inner.Stabilize()
	d.stabilize += time.Since(t)
}
