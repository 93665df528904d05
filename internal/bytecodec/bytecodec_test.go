package bytecodec

import "testing"

func TestCountBoundsByRemainingBytes(t *testing.T) {
	b := AppendUvarint(nil, 3)
	b = append(b, 1, 2, 3)
	if n := NewReader(b).Count(1); n != 3 {
		t.Fatalf("3 one-byte elements in 3 bytes: Count = %d", n)
	}
	r := NewReader(b)
	if n := r.Count(2); n != 0 || r.Err() == nil {
		t.Fatalf("3 two-byte elements in 3 bytes: Count = %d, err %v", n, r.Err())
	}
	r = NewReader(AppendUvarint(nil, 1<<40))
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("a 2^40 count with no bytes left: Count = %d, err %v", n, r.Err())
	}
	// The error latches: later reads return zero values.
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("read after a rejected count returned %d", v)
	}
}
