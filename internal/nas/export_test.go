package nas

import (
	"errors"
	"fmt"

	"solarml/internal/bytecodec"
)

// BindingMismatch reports how a candidate's binding differs from a fresh
// computation: the fingerprint of a freshly decoded (so unbound) copy and a
// new walk of its architecture. It is nil when the candidate is bound and
// both agree.
func BindingMismatch(c *Candidate) error {
	if !c.bind.bound {
		return errors.New("candidate is unbound")
	}
	fresh, err := ReadCandidate(bytecodec.NewReader(AppendCandidate(nil, c)))
	if err != nil {
		return err
	}
	if fp := fresh.Fingerprint(); fp != c.bind.fp {
		return fmt.Errorf("bound fingerprint %#016x, fresh %#016x", c.bind.fp, fp)
	}
	an, err := c.Arch.Analyze()
	if err != nil {
		return fmt.Errorf("bound candidate fails a fresh analysis: %w", err)
	}
	if an != c.bind.an {
		return fmt.Errorf("bound analysis %+v, fresh %+v", c.bind.an, an)
	}
	return nil
}

// Bound reports whether the candidate carries a binding.
func (c *Candidate) Bound() bool { return c.bind.bound }
