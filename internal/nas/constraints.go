package nas

import (
	"fmt"
)

// Constraints are the hard limits every candidate must satisfy (§V-D: 100 KB
// memory, 30 M MACs, task-specific error caps — 0.25 for digit gestures,
// 0.3 for KWS).
type Constraints struct {
	// MemoryBytes bounds weights + activations at the quantized widths.
	MemoryBytes int64
	// MaxMACs bounds the per-inference MAC count.
	MaxMACs int64
	// MaxError bounds 1 − accuracy; checked after evaluation.
	MaxError float64
}

// DefaultConstraints returns the paper's evaluation settings for the task.
func DefaultConstraints(task Task) Constraints {
	c := Constraints{MemoryBytes: 100 * 1024, MaxMACs: 30_000_000}
	if task == TaskGesture {
		c.MaxError = 0.25
	} else {
		c.MaxError = 0.30
	}
	return c
}

// weightBits returns the storage width per weight for the candidate's
// quantization configuration (KWS models store int8 weights as in μNAS).
func weightBits(c *Candidate) int {
	if c.Task == TaskGesture {
		return c.Gesture.Quant.Bits
	}
	return 8
}

// CheckStatic verifies the structural constraints (memory, MACs) that can
// be checked without training. It runs on the architecture analysis alone,
// so no tensor is ever allocated to screen a candidate: the candidate's
// bound analysis, or a fresh walk of its architecture when it is unbound.
func (ct Constraints) CheckStatic(c *Candidate) error {
	an, err := c.archAnalysis()
	if err != nil {
		return err
	}
	if macs := an.MACs.Total(); macs > ct.MaxMACs {
		return fmt.Errorf("nas: %d MACs exceeds limit %d", macs, ct.MaxMACs)
	}
	wb := weightBits(c)
	if wb < 8 {
		wb = 8 // sub-byte weights are stored byte-packed on the MCU
	}
	if mem := an.MemoryBytes(wb, 8); mem > ct.MemoryBytes {
		return fmt.Errorf("nas: %d B memory exceeds limit %d", mem, ct.MemoryBytes)
	}
	return nil
}

// Feasible reports whether accuracy acc meets the error cap — the
// allocation-free predicate behind CheckAccuracy, for hot loops that only
// need the verdict.
func (ct Constraints) Feasible(acc float64) bool {
	return !(1-acc > ct.MaxError)
}

// CheckAccuracy verifies the error cap after evaluation.
func (ct Constraints) CheckAccuracy(acc float64) error {
	if !ct.Feasible(acc) {
		return fmt.Errorf("nas: error %.3f exceeds cap %.3f", 1-acc, ct.MaxError)
	}
	return nil
}
