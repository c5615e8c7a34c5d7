package resources

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TokenBucket is the bandwidth resource: a classic token bucket with a
// byte-per-second rate and a burst ceiling. The clock is injectable so
// shaping behaviour is testable deterministically.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time

	allowed atomic.Uint64
	denied  atomic.Uint64
}

// NewTokenBucket creates a bucket with the given rate (bytes/sec) and burst
// (bytes). A nil clock uses time.Now. The bucket starts full.
func NewTokenBucket(rate, burst float64, clock func() time.Time) (*TokenBucket, error) {
	if rate <= 0 || burst <= 0 {
		return nil, fmt.Errorf("resources: token bucket rate %f burst %f", rate, burst)
	}
	if clock == nil {
		clock = time.Now
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: clock(), now: clock}, nil
}

// Allow consumes n tokens if available, reporting whether the consumption
// happened. Non-conforming traffic is the caller's problem (drop or queue).
func (b *TokenBucket) Allow(n int) bool {
	if n <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	if float64(n) <= b.tokens {
		b.tokens -= float64(n)
		b.allowed.Add(1)
		return true
	}
	b.denied.Add(1)
	return false
}

// SetRate retunes the fill rate (bytes/sec) of a live bucket: the
// resources meta-model's adaptation knob. Accumulated tokens are settled
// at the old rate first, so the change takes effect from now, not
// retroactively.
func (b *TokenBucket) SetRate(rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("resources: token bucket rate %f", rate)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	b.rate = rate
	return nil
}

// Rate reports the configured fill rate (bytes/sec).
func (b *TokenBucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// Burst reports the configured burst ceiling (bytes).
func (b *TokenBucket) Burst() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.burst
}

// Tokens reports the current token level (after refill).
func (b *TokenBucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	return b.tokens
}

// Stats reports (allowed, denied) decision counts.
func (b *TokenBucket) Stats() (allowed, denied uint64) {
	return b.allowed.Load(), b.denied.Load()
}

// refill adds tokens for elapsed time; caller holds the lock.
func (b *TokenBucket) refill() {
	now := b.now()
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.last = now
	b.tokens += dt * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}
