package resilience

import "time"

// RetryPolicy retries transient persistence failures with exponential
// backoff: attempt i sleeps BaseDelay·2^(i-1), capped at MaxDelay.
type RetryPolicy struct {
	Attempts  int           // total tries (≥1)
	BaseDelay time.Duration // delay before the second try
	MaxDelay  time.Duration // backoff ceiling

	// Sleep is the delay function; nil means time.Sleep. Tests inject a
	// recorder here so backoff behaviour is checked without real waiting.
	Sleep func(time.Duration)
	// OnRetry, if set, observes each failed attempt before the backoff.
	OnRetry func(attempt int, err error)
}

// DefaultRetryPolicy matches the persistence defaults: 4 attempts starting
// at 50ms, capped at 2s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// Do runs fn until it succeeds or the attempts are exhausted, returning the
// last error.
func (p RetryPolicy) Do(fn func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if attempt == attempts {
			return err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		delay := p.BaseDelay << (attempt - 1)
		if p.MaxDelay > 0 && delay > p.MaxDelay {
			delay = p.MaxDelay
		}
		if delay > 0 {
			sleep(delay)
		}
	}
	return err
}
