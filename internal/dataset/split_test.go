package dataset

import (
	"testing"

	"solarml/internal/quant"
)

func TestGestureSplitStratified(t *testing.T) {
	s := BuildGestureSet(100, 500, 21)
	train, test := s.Split(5)
	trainCounts := make(map[int]int)
	testCounts := make(map[int]int)
	for _, raw := range train.Samples {
		trainCounts[raw.Label]++
	}
	for _, raw := range test.Samples {
		testCounts[raw.Label]++
	}
	for c := 0; c < NumGestureClasses; c++ {
		if trainCounts[c] != 8 || testCounts[c] != 2 {
			t.Fatalf("class %d split %d/%d, want 8/2 (both subsets need every class)",
				c, trainCounts[c], testCounts[c])
		}
	}
}

func TestKWSSplitStratified(t *testing.T) {
	s := BuildKWSSet(100, 22)
	train, test := s.Split(5)
	trainCounts := make(map[int]int)
	testCounts := make(map[int]int)
	for _, l := range train.Labels {
		trainCounts[l]++
	}
	for _, l := range test.Labels {
		testCounts[l]++
	}
	for c := 0; c < NumKWSClasses; c++ {
		if trainCounts[c] == 0 || testCounts[c] == 0 {
			t.Fatalf("class %d missing from a subset (%d train / %d test)",
				c, trainCounts[c], testCounts[c])
		}
	}
}

// TestSplitSizesMatchesSplit checks the size-only prediction against the
// real stratified split, including the small sizes whose test split is
// empty.
func TestSplitSizesMatchesSplit(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 29, 30, 31, 45, 100} {
		for _, every := range []int{0, 3, 4, 5} {
			train, test := BuildGestureSet(n, 500, 5).Split(every)
			gotTrain, gotTest := SplitSizes(n, NumGestureClasses, every)
			if gotTrain != len(train.Samples) || gotTest != len(test.Samples) {
				t.Fatalf("n=%d every=%d: SplitSizes %d/%d, Split %d/%d",
					n, every, gotTrain, gotTest, len(train.Samples), len(test.Samples))
			}
		}
	}
	train, test := BuildKWSSet(31, 6).Split(4)
	if tr, te := SplitSizes(31, NumKWSClasses, 4); tr != len(train.Audio) || te != len(test.Audio) {
		t.Fatalf("KWS n=31: SplitSizes %d/%d, Split %d/%d", tr, te, len(train.Audio), len(test.Audio))
	}
}

// TestMaterializeEmptySetErrors checks that an empty set — the test split
// of a set too small to hold one test sample per class — is an error
// rather than a zero-sized tensor panic.
func TestMaterializeEmptySetErrors(t *testing.T) {
	_, gTest := BuildGestureSet(30, 500, 7).Split(4)
	if len(gTest.Samples) != 0 {
		t.Fatalf("gesture test split has %d samples, want 0", len(gTest.Samples))
	}
	gcfg := GestureConfig{Channels: 2, RateHz: 20, Quant: quant.Config{Res: quant.Int, Bits: 4}}
	if _, _, err := gTest.Materialize(gcfg); err == nil {
		t.Fatal("materializing an empty gesture set must fail")
	}
	_, kTest := BuildKWSSet(30, 8).Split(4)
	if len(kTest.Audio) != 0 {
		t.Fatalf("KWS test split has %d clips, want 0", len(kTest.Audio))
	}
	if _, _, err := kTest.Materialize(defaultFrontEnd()); err == nil {
		t.Fatal("materializing an empty KWS set must fail")
	}
}
