package powertrace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV streams the trace as (t_s, power_w) rows at the given sample
// rate — the interchange format of bench-top power analyzers.
func (r *Recorder) WriteCSV(w io.Writer, rateHz float64) error {
	if rateHz <= 0 {
		return fmt.Errorf("powertrace: invalid sample rate %v", rateHz)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_s", "power_w"}); err != nil {
		return err
	}
	for i, p := range r.Samples(rateHz) {
		if err := cw.Write([]string{
			strconv.FormatFloat(float64(i)/rateHz, 'g', -1, 64),
			strconv.FormatFloat(p, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
