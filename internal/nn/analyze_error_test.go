package nn

import "testing"

// archErrorCases cover every message Analyze can return, each pinned to the
// text the analyzer formatted eagerly before its rejections became typed
// errors.
var archErrorCases = []struct {
	name string
	arch Arch
	want string
}{
	{"classes", Arch{Input: []int{1, 4, 4}, Classes: 1},
		"nn: Arch needs ≥2 classes, have 1"},
	{"empty input", Arch{Classes: 2},
		"nn: invalid input shape []"},
	{"zero input", Arch{Input: []int{0, 4}, Classes: 2},
		"nn: invalid input shape [0 4]"},
	{"after dense", Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{{Kind: KindDense, Out: 4}, {Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1}}, Classes: 2},
		"nn: layer 1 (Conv(4,k3,s1,p1)) after Dense must be Dense or ReLU"},
	{"kind limit", Arch{Input: []int{1 << 19, 1, 1}, Body: []LayerSpec{{Kind: KindConv, Out: 1 << 20, K: 1, Stride: 1}, {Kind: KindConv, Out: 1 << 20, K: 1, Stride: 1}}, Classes: 2},
		"nn: layer 1: nn: Conv exceeds the analysis limit"},
	{"dense width", Arch{Input: []int{16}, Body: []LayerSpec{{Kind: KindDense, Out: 0}}, Classes: 2},
		"nn: layer 0: nn: invalid Dense width 0"},
	{"head width", Arch{Input: []int{16}, Classes: 1 << 41},
		"nn: classifier head: nn: invalid Dense width 2199023255552"},
	{"dense limit", Arch{Input: []int{1 << 30}, Body: []LayerSpec{{Kind: KindDense, Out: 1 << 20}}, Classes: 2},
		"nn: layer 0: nn: Dense(1048576) over 1073741824 inputs exceeds the analysis limit"},
	{"head limit", Arch{Input: []int{1 << 30}, Classes: 1 << 20},
		"nn: classifier head: nn: Dense(1048576) over 1073741824 inputs exceeds the analysis limit"},
	{"conv rank", Arch{Input: []int{16}, Body: []LayerSpec{{Kind: KindConv, Out: 4, K: 3, Stride: 1}}, Classes: 2},
		"nn: layer 0: nn: Conv needs (C,H,W) input, have rank 1"},
	{"dwconv rank", Arch{Input: []int{16}, Body: []LayerSpec{{Kind: KindDWConv, K: 3, Stride: 1}}, Classes: 2},
		"nn: layer 0: nn: DWConv needs (C,H,W) input, have rank 1"},
	{"conv geometry", Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{{Kind: KindConv, Out: 4, K: 0, Stride: 1}}, Classes: 2},
		"nn: layer 0: nn: invalid Conv geometry (k=0 s=1 p=0)"},
	{"dwconv geometry", Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{{Kind: KindDWConv, K: 3, Stride: 1, Pad: -1}}, Classes: 2},
		"nn: layer 0: nn: invalid DWConv geometry (k=3 s=1 p=-1)"},
	{"conv width", Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{{Kind: KindConv, Out: 0, K: 3, Stride: 1}}, Classes: 2},
		"nn: layer 0: nn: invalid Conv width 0"},
	{"collapse", Arch{Input: []int{1, 2, 2}, Body: []LayerSpec{{Kind: KindReLU}, {Kind: KindConv, Out: 4, K: 5, Stride: 1}}, Classes: 2},
		"nn: layer 1: nn: Conv collapses input (1,2,2) (k=5 s=1)"},
	{"dw collapse", Arch{Input: []int{3, 8, 2}, Body: []LayerSpec{{Kind: KindDWConv, K: 3, Stride: 1}}, Classes: 2},
		"nn: layer 0: nn: DWConv collapses input (3,8,2) (k=3 s=1)"},
	{"spec limit", Arch{Input: []int{1 << 20, 1, 1}, Body: []LayerSpec{{Kind: KindConv, Out: 1 << 21, K: 1, Stride: 1}}, Classes: 2},
		"nn: layer 0: nn: Conv(2097152,k1,s1,p0) exceeds the analysis limit"},
	{"maxpool fit", Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{{Kind: KindMaxPool, K: 5}}, Classes: 2},
		"nn: layer 0: nn: MaxPool(5) does not fit the input"},
	{"avgpool rank", Arch{Input: []int{16}, Body: []LayerSpec{{Kind: KindAvgPool, K: 2}}, Classes: 2},
		"nn: layer 0: nn: AvgPool(2) does not fit the input"},
	{"norm rank", Arch{Input: []int{16}, Body: []LayerSpec{{Kind: KindNorm}}, Classes: 2},
		"nn: layer 0: nn: Norm needs (C,H,W) input, have rank 1"},
	{"unknown kind", Arch{Input: []int{16}, Body: []LayerSpec{{Kind: 99}}, Classes: 2},
		"nn: layer 0: nn: unknown layer kind 99"},
}

func TestAnalyzeErrorMessages(t *testing.T) {
	for _, tc := range archErrorCases {
		_, err := tc.arch.Analyze()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}
