package nn

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"testing"

	"solarml/internal/compute"
	"solarml/internal/tensor"
)

// trainedGestureCNN trains the deploy-shaped gesture CNN ((1,6,120) IMU
// windows, 5 classes) on synthetic per-class oscillation patterns. The
// fixture is trained once per process and shared — every consumer treats
// the float network as read-only (ConvertInt8 restores the params it
// touches), and the training is seeded so the shared copy is the same model
// each caller would have trained.
var gestureFixture struct {
	once     sync.Once
	arch     *Arch
	net      *Network
	x        *tensor.Tensor
	y        []int
	acc      float64
	buildErr error
}

func trainedGestureCNN(t testing.TB) (*Arch, *Network, *tensor.Tensor, []int) {
	t.Helper()
	f := &gestureFixture
	f.once.Do(func() {
		f.arch, f.net, f.x, f.y, f.acc, f.buildErr = buildGestureCNN()
	})
	if f.buildErr != nil {
		t.Fatal(f.buildErr)
	}
	if f.acc < 0.8 {
		t.Fatalf("float gesture CNN failed to train: %.2f", f.acc)
	}
	return f.arch, f.net, f.x, f.y
}

func buildGestureCNN() (*Arch, *Network, *tensor.Tensor, []int, float64, error) {
	rng := rand.New(rand.NewSource(60))
	arch := &Arch{
		Input: []int{1, 6, 120},
		Body: []LayerSpec{
			{Kind: KindConv, Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU},
			{Kind: KindMaxPool, K: 2},
			{Kind: KindDense, Out: 32},
			{Kind: KindReLU},
		},
		Classes: 5,
	}
	const n = 150
	x := tensor.New(n, 1, 6, 120)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 5
		y[i] = cls
		freq := 0.05 + 0.07*float64(cls)
		for c := 0; c < 6; c++ {
			phase := float64(c) * 0.6
			for s := 0; s < 120; s++ {
				v := math.Sin(freq*float64(s)+phase) + rng.NormFloat64()*0.15
				x.Set(v, i, 0, c, s)
			}
		}
	}
	net, err := arch.Build()
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	net.Init(rng)
	net.Fit(x, y, TrainConfig{Epochs: 8, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 3})
	return arch, net, x, y, net.Accuracy(x, y), nil
}

func convertGesture(t testing.TB) (*Int8Model, *Network, *tensor.Tensor, []int) {
	t.Helper()
	arch, net, x, y := trainedGestureCNN(t)
	m, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: 8, ActBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m, net, x, y
}

// TestInt8AgreesWithFloat pins the int8-vs-float32 contract on the gesture
// CNN: logits within a quantization-commensurate bound, argmax agreement on
// ≥90% of samples, and accuracy within 5 points of float.
func TestInt8AgreesWithFloat(t *testing.T) {
	m, net, x, y := convertGesture(t)

	floatLogits := net.Forward(x, false)
	ex := m.NewExecutor(nil, 32)
	n := x.Shape[0]
	sample := len(x.Data) / n
	k := m.Classes()

	// Logit error bound: quantization noise scales with the dynamic range
	// of the float logits.
	bound := 0.25 * floatLogits.MaxAbs()
	if bound == 0 {
		t.Fatal("degenerate float logits")
	}
	agree := 0
	for start := 0; start < n; start += 32 {
		end := start + 32
		if end > n {
			end = n
		}
		got := ex.Forward(x.Data[start*sample:end*sample], end-start)
		for i := 0; i < end-start; i++ {
			fBest, fArg, qBest, qArg := math.Inf(-1), 0, math.Inf(-1), 0
			for j := 0; j < k; j++ {
				f := floatLogits.Data[(start+i)*k+j]
				q := got[i*k+j]
				if d := math.Abs(f - q); d > bound {
					t.Fatalf("sample %d class %d: int8 logit %.4f vs float %.4f (bound %.4f)", start+i, j, q, f, bound)
				}
				if f > fBest {
					fBest, fArg = f, j
				}
				if q > qBest {
					qBest, qArg = q, j
				}
			}
			if fArg == qArg {
				agree++
			}
		}
	}
	if rate := float64(agree) / float64(n); rate < 0.9 {
		t.Fatalf("argmax agreement %.2f < 0.90", rate)
	}

	floatAcc := net.Accuracy(x, y)
	qAcc := m.Accuracy(nil, x, y)
	if qAcc < floatAcc-0.05 {
		t.Fatalf("int8 accuracy %.3f vs float %.3f — drop too large", qAcc, floatAcc)
	}
}

// TestInt8DeterministicAcrossWorkers pins bit-identical logits for serial
// and pooled executors at several worker counts.
func TestInt8DeterministicAcrossWorkers(t *testing.T) {
	m, _, x, _ := convertGesture(t)
	batch := 16
	in := x.Data[:batch*m.InVol()]
	ref := append([]float64(nil), m.NewExecutor(nil, batch).Forward(in, batch)...)
	for _, workers := range []int{2, 4, 7} {
		ctx := compute.NewContextFor(workers, nil)
		got := m.NewExecutor(ctx, batch).Forward(in, batch)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: logit %d = %v, serial %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// allOpsArch lowers to a program holding every int8 op kind.
func allOpsArch() *Arch {
	return &Arch{
		Input: []int{2, 8, 16},
		Body: []LayerSpec{
			{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: KindNorm},
			{Kind: KindReLU},
			{Kind: KindDWConv, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU},
			{Kind: KindAvgPool, K: 2},
			{Kind: KindMaxPool, K: 2},
			{Kind: KindReLU}, // after a pool: stays a standalone int8 op
			{Kind: KindDense, Out: 16},
			{Kind: KindReLU},
		},
		Classes: 3,
	}
}

// TestInt8CoversAllOps lowers an architecture exercising every op kind
// (dwconv, norm, avgpool, standalone relu included) and checks the int8
// accuracy stays near float.
func TestInt8CoversAllOps(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	arch := allOpsArch()
	const n = 90
	x := tensor.New(n, 2, 8, 16)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 3
		y[i] = cls
		for c := 0; c < 2; c++ {
			for r := 0; r < 8; r++ {
				for s := 0; s < 16; s++ {
					v := rng.NormFloat64() * 0.2
					if r%3 == cls {
						v += 1.0
					}
					x.Set(v, i, c, r, s)
				}
			}
		}
	}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rng)
	net.Fit(x, y, TrainConfig{Epochs: 20, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 4})
	floatAcc := net.Accuracy(x, y)
	if floatAcc < 0.8 {
		t.Fatalf("float model failed to train: %.2f", floatAcc)
	}
	m, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: 8, ActBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[int8OpKind]bool{}
	for i := range m.ops {
		kinds[m.ops[i].kind] = true
	}
	for _, k := range []int8OpKind{opConv, opDWConv, opNorm, opAvgPool, opMaxPool, opDense, opDenseLogits, opReLU} {
		if !kinds[k] {
			t.Fatalf("lowered program missing op kind %d", k)
		}
	}
	if qAcc := m.Accuracy(nil, x, y); qAcc < floatAcc-0.1 {
		t.Fatalf("int8 accuracy %.3f vs float %.3f", qAcc, floatAcc)
	}
}

// TestConvertInt8PreservesFloatModel pins the snapshot/restore contract:
// lowering must not perturb the float network it reads.
func TestConvertInt8PreservesFloatModel(t *testing.T) {
	arch, net, x, _ := trainedGestureCNN(t)
	before := net.SnapshotParams()
	if _, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: 8, ActBits: 8}); err != nil {
		t.Fatal(err)
	}
	after := net.SnapshotParams()
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("param %d[%d] changed: %v → %v", i, j, before[i][j], after[i][j])
			}
		}
	}
}

func TestConvertInt8Validation(t *testing.T) {
	arch, net, x, _ := trainedGestureCNN(t)
	if _, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: 16, ActBits: 8}); err == nil {
		t.Fatal("16-bit weights must be rejected by the int8 lowering")
	}
	if _, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: 8, ActBits: 1}); err == nil {
		t.Fatal("1-bit activations must be rejected")
	}
	if _, err := ConvertInt8(arch, net, nil, PTQConfig{WeightBits: 8, ActBits: 8}); err == nil {
		t.Fatal("missing calibration batch must be rejected")
	}
}

// TestInt8ModelRoundTrip pins the codec: decode(encode(m)) must reproduce
// the serialized bytes and the logits exactly.
func TestInt8ModelRoundTrip(t *testing.T) {
	m, _, x, _ := convertGesture(t)
	var buf bytes.Buffer
	if err := SaveInt8Model(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadInt8Model(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := SaveInt8Model(&buf2, m2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialized int8 model differs byte-for-byte")
	}
	in := x.Data[:4*m.InVol()]
	a := m.NewExecutor(nil, 4).Forward(in, 4)
	b := m2.NewExecutor(nil, 4).Forward(in, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("logit %d: %v vs %v after round trip", i, a[i], b[i])
		}
	}
	if m2.ArchString() != m.ArchString() {
		t.Fatalf("arch string %q → %q", m.ArchString(), m2.ArchString())
	}
}

// ---- container envelope ---------------------------------------------------

func TestModelContainerRoundTrip(t *testing.T) {
	arch, net, x, y := trainedGestureCNN(t)
	var buf bytes.Buffer
	if err := SaveModel(&buf, arch, net); err != nil {
		t.Fatal(err)
	}
	arch2, net2, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if arch2.String() != arch.String() {
		t.Fatalf("arch %q → %q", arch.String(), arch2.String())
	}
	if a, b := net.Accuracy(x, y), net2.Accuracy(x, y); a != b {
		t.Fatalf("reloaded accuracy %v, want %v", b, a)
	}
}

func TestModelContainerRejectsCorruption(t *testing.T) {
	arch, net, _, _ := trainedGestureCNN(t)
	var buf bytes.Buffer
	if err := SaveModel(&buf, arch, net); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// A flipped bit in the middle must fail the checksum.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	if _, _, err := LoadModel(bytes.NewReader(bad)); err == nil {
		t.Fatal("bit flip must fail the checksum")
	}

	// Truncation must fail loudly.
	if _, _, err := LoadModel(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Fatal("truncated container must be rejected")
	}

	// Wrong magic.
	bad = append([]byte(nil), good...)
	bad[0] = 'X'
	if _, _, err := LoadModel(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic must be rejected")
	}
}

func TestModelContainerRejectsVersionSkew(t *testing.T) {
	arch, net, _, _ := trainedGestureCNN(t)
	var buf bytes.Buffer
	if err := SaveModel(&buf, arch, net); err != nil {
		t.Fatal(err)
	}
	// Patch the version uvarint (first byte after the magic) to a future
	// version and re-seal the checksum: the reader must reject the skew
	// explicitly rather than misparse the payload.
	b := append([]byte(nil), buf.Bytes()...)
	if b[len(containerMagic)] != containerVersion {
		t.Fatal("test assumes a single-byte version uvarint")
	}
	b[len(containerMagic)] = containerVersion + 1
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(body))
	_, _, err := LoadModel(bytes.NewReader(b))
	if err == nil {
		t.Fatal("version skew must be rejected")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("version")) {
		t.Fatalf("skew error should mention the version, got: %v", err)
	}
}

func TestModelContainerRejectsWrongKind(t *testing.T) {
	m, _, _, _ := convertGesture(t)
	var qbuf bytes.Buffer
	if err := SaveInt8Model(&qbuf, m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadModel(bytes.NewReader(qbuf.Bytes())); err == nil {
		t.Fatal("float loader must refuse an int8 payload")
	}
	arch, net, _, _ := trainedGestureCNN(t)
	var fbuf bytes.Buffer
	if err := SaveModel(&fbuf, arch, net); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadInt8Model(bytes.NewReader(fbuf.Bytes())); err == nil {
		t.Fatal("int8 loader must refuse a float payload")
	}
}

// TestInt8ModelSmallerThanFloat pins the acceptance ratio: the serialized
// int8 model must be ≥3× smaller than the float export of the same network.
func TestInt8ModelSmallerThanFloat(t *testing.T) {
	m, net, _, _ := convertGesture(t)
	arch, _, _, _ := trainedGestureCNN(t)
	var fbuf, qbuf bytes.Buffer
	if err := SaveModel(&fbuf, arch, net); err != nil {
		t.Fatal(err)
	}
	if err := SaveInt8Model(&qbuf, m); err != nil {
		t.Fatal(err)
	}
	if qbuf.Len()*3 > fbuf.Len() {
		t.Fatalf("int8 export %d bytes vs float %d — want ≥3× smaller", qbuf.Len(), fbuf.Len())
	}
}
