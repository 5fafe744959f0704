// Package pastry implements the structured-overlay baseline the paper
// compares MPIL against: a Pastry network with the overlay-maintenance
// machinery of MSPastry (Castro et al., DSN 2004) at the level of detail
// the paper's experiments exercise — prefix routing with leaf sets,
// per-hop acknowledgment and retransmission, failure detection by periodic
// probing with timeout and retries, leaf-set repair, routing-table repair,
// and node re-announcement after an outage.
//
// The original MSPastry is closed source (the paper used it under a
// Microsoft Research license); this package is the substitution documented
// under "Substitutions" in EXPERIMENTS.md. It runs on the same
// discrete-event simulator, ID space, and availability models as the MPIL
// implementation, so the two can be compared on equal footing (paper
// Sections 3 and 6.2).
package pastry

import (
	"fmt"
	"time"
)

// Params collects the protocol constants. The defaults are the paper's
// MSPastry configuration (Section 6.2).
type Params struct {
	// B is the digit width in bits (paper: b = 4, hexadecimal digits).
	B int
	// LeafSize is the total leaf-set size l (paper: 8; half on each side
	// of the ring).
	LeafSize int
	// LeafsetProbePeriod is how often a node probes a leaf-set member
	// (paper: 30 s).
	LeafsetProbePeriod time.Duration
	// RTProbePeriod is how often a node probes a routing-table entry
	// (paper: 90 s).
	RTProbePeriod time.Duration
	// RTMaintPeriod is the slow full routing-table maintenance sweep
	// (paper: 12000 s).
	RTMaintPeriod time.Duration
	// ProbeTimeout is the per-attempt ack/probe-reply timeout
	// (paper: 3 s).
	ProbeTimeout time.Duration
	// ProbeRetries is how many additional attempts are made after the
	// first before a node is declared failed (paper: 2).
	ProbeRetries int
	// LookupTimeout is the end-to-end patience of a lookup before the
	// origin declares failure.
	LookupTimeout time.Duration
	// RetryInterval is how long the origin waits before re-issuing an
	// unanswered request, up to LookupTimeout. Hop-level data is
	// single-shot (a message to a perturbed node is simply lost), so
	// end-to-end retry is the reliability mechanism for applications.
	RetryInterval time.Duration
	// ReplicationOnRoute enables the paper's "MSPastry with RR" variant:
	// every node on an insertion's route stores a replica, not just the
	// root (Section 6.2).
	ReplicationOnRoute bool
	// MaxHops bounds a single message's forwarding chain, a safety valve
	// against routing loops caused by stale state under heavy
	// perturbation.
	MaxHops int
}

// DefaultParams returns the paper's MSPastry configuration.
func DefaultParams() Params {
	return Params{
		B:                  4,
		LeafSize:           8,
		LeafsetProbePeriod: 30 * time.Second,
		RTProbePeriod:      90 * time.Second,
		RTMaintPeriod:      12000 * time.Second,
		ProbeTimeout:       3 * time.Second,
		ProbeRetries:       2,
		LookupTimeout:      45 * time.Second,
		RetryInterval:      3 * time.Second,
		MaxHops:            64,
	}
}

// Validate reports the first invalid parameter.
func (p Params) Validate() error {
	switch p.B {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("pastry: digit width b = %d, want 1, 2, 4 or 8", p.B)
	}
	if p.LeafSize < 2 || p.LeafSize%2 != 0 {
		return fmt.Errorf("pastry: leaf size %d must be a positive even number", p.LeafSize)
	}
	if p.LeafsetProbePeriod <= 0 || p.RTProbePeriod <= 0 || p.RTMaintPeriod <= 0 {
		return fmt.Errorf("pastry: maintenance periods must be positive")
	}
	if p.ProbeTimeout <= 0 {
		return fmt.Errorf("pastry: probe timeout must be positive")
	}
	if p.ProbeRetries < 0 {
		return fmt.Errorf("pastry: negative probe retries %d", p.ProbeRetries)
	}
	if p.LookupTimeout <= 0 {
		return fmt.Errorf("pastry: lookup timeout must be positive")
	}
	if p.RetryInterval <= 0 || p.RetryInterval > p.LookupTimeout {
		return fmt.Errorf("pastry: retry interval %v must be in (0, lookup timeout %v]", p.RetryInterval, p.LookupTimeout)
	}
	if p.MaxHops < 1 {
		return fmt.Errorf("pastry: max hops %d must be positive", p.MaxHops)
	}
	return nil
}
