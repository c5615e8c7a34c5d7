package router

import (
	"fmt"
	"strconv"
	"time"

	"netkit/core"
	"netkit/resources"
)

// TokenShaper polices traffic to a byte rate with a burst allowance using
// the resources meta-model's token bucket (the paper's "shapers" in-band
// function class). Non-conforming packets are dropped and counted; pair
// the shaper with an upstream queue for shaping rather than policing.
type TokenShaper struct {
	*core.Base
	elementCounters
	bucket *resources.TokenBucket
	out    *core.Receptacle[IPacketPush]
	plan   *fusedPlan
}

// NewTokenShaper creates a shaper with rate bytes/sec and burst bytes. A
// nil clock uses wall time.
func NewTokenShaper(rate, burst float64, clock func() time.Time) (*TokenShaper, error) {
	bucket, err := resources.NewTokenBucket(rate, burst, clock)
	if err != nil {
		return nil, fmt.Errorf("router: shaper: %w", err)
	}
	s := &TokenShaper{Base: core.NewBase(TypeTokenShaper), bucket: bucket}
	s.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	s.AddReceptacle("out", s.out)
	s.Provide(IPacketPushID, s)
	s.plan = onePlan(s.fuseStep())
	return s, nil
}

// PushBatch implements IPacketPush: conformance stays per-packet
// (token buckets meter bytes), and the conforming packets leave as one
// batch.
func (s *TokenShaper) PushBatch(batch []*Packet) error { return s.plan.run(batch) }

// Stats implements core.IStats, adding the bucket's decision counters and
// the configured rate/burst gauges (the knobs the resources meta-model —
// and therefore the adaptation engine — retunes).
func (s *TokenShaper) Stats() []core.Stat {
	allowed, denied := s.bucket.Stats()
	return append(s.statList(),
		core.C("shaper_allowed", "packets", allowed),
		core.C("shaper_denied", "packets", denied),
		core.G("shaper_rate", "bytes/sec", s.bucket.Rate()),
		core.G("shaper_burst", "bytes", s.bucket.Burst()))
}

// BucketStats reports (allowed, denied) decisions.
func (s *TokenShaper) BucketStats() (allowed, denied uint64) { return s.bucket.Stats() }

// SetRate retunes the shaper's fill rate through the resources meta-model
// (the bucket is the meta-model's bandwidth resource); it is the action
// surface adapt rules use to adapt policing to measured drops.
func (s *TokenShaper) SetRate(rate float64) error { return s.bucket.SetRate(rate) }

// Rate reports the configured fill rate in bytes/sec.
func (s *TokenShaper) Rate() float64 { return s.bucket.Rate() }

func init() {
	core.Components.MustRegister(TypeTokenShaper, func(cfg map[string]string) (core.Component, error) {
		rate, burst := 1e6, 64e3
		if v, ok := cfg["rate"]; ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("router: shaper rate: %w", err)
			}
			rate = f
		}
		if v, ok := cfg["burst"]; ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("router: shaper burst: %w", err)
			}
			burst = f
		}
		return NewTokenShaper(rate, burst, nil)
	})
}
