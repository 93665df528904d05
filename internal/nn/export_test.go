package nn

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"solarml/internal/tensor"
)

// allOpsModel lowers an initialized (untrained) network covering every op
// kind: the header carries program fields, whatever their values.
func allOpsModel(t testing.TB) *Int8Model {
	t.Helper()
	rng := rand.New(rand.NewSource(62))
	arch := allOpsArch()
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rng)
	calib := tensor.New(append([]int{16}, arch.Input...)...)
	calib.RandFill(rng, 1)
	m, err := ConvertInt8(arch, net, calib, PTQConfig{WeightBits: 6, ActBits: 7})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int8OpKind]bool{}
	for i := range m.ops {
		seen[m.ops[i].kind] = true
	}
	if len(seen) != int(numInt8Ops) {
		t.Fatalf("program covers %d of %d op kinds", len(seen), numInt8Ops)
	}
	return m
}

// cHeader is a parsed generated header.
type cHeader struct {
	guards  []string           // value-less #defines
	defines map[string]int64   // #define NAME <int>
	ints    map[string][]int64 // int8_t / int32_t arrays
	doubles map[string][]float64
}

// parseCHeader reads every #define and static const declaration of a
// generated header, failing on any line it does not recognize.
func parseCHeader(t *testing.T, src []byte) cHeader {
	t.Helper()
	h := cHeader{defines: map[string]int64{}, ints: map[string][]int64{}, doubles: map[string][]float64{}}
	intLit := func(tok string) int64 {
		if tok == "INT32_MIN" {
			return math.MinInt32
		}
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			t.Fatalf("integer literal %q: %v", tok, err)
		}
		return v
	}
	store := func(ctype, name string, toks []string) {
		switch ctype {
		case "int8_t", "int32_t":
			for _, tok := range toks {
				h.ints[name] = append(h.ints[name], intLit(tok))
			}
		case "double":
			for _, tok := range toks {
				v, err := strconv.ParseFloat(tok, 64)
				if err != nil || !strings.ContainsAny(tok, ".e") {
					t.Fatalf("%s: %q is not a double literal", name, tok)
				}
				h.doubles[name] = append(h.doubles[name], v)
			}
		default:
			t.Fatalf("%s: unexpected C type %q", name, ctype)
		}
	}
	sc := bufio.NewScanner(bytes.NewReader(src))
	inComment := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case inComment:
			inComment = !strings.Contains(line, "*/")
		case strings.HasPrefix(line, "/*"):
			inComment = !strings.Contains(line, "*/")
		case line == "", line == "#include <stdint.h>", strings.HasPrefix(line, "#ifndef "), strings.HasPrefix(line, "#endif "):
		case strings.HasPrefix(line, "#define "):
			f := strings.Fields(line)
			switch len(f) {
			case 2:
				h.guards = append(h.guards, f[1])
			case 3:
				if _, dup := h.defines[f[1]]; dup {
					t.Fatalf("duplicate #define %s", f[1])
				}
				h.defines[f[1]] = intLit(f[2])
			default:
				t.Fatalf("malformed define %q", line)
			}
		case strings.HasPrefix(line, "static const "):
			f := strings.Fields(strings.TrimSuffix(line, ";"))
			if len(f) != 6 || f[4] != "=" {
				t.Fatalf("malformed declaration %q", line)
			}
			if f[5] != "{" { // scalar
				store(f[2], f[3], []string{f[5]})
				continue
			}
			name, size, ok := strings.Cut(strings.TrimSuffix(f[3], "]"), "[")
			n, err := strconv.Atoi(size)
			if !ok || err != nil {
				t.Fatalf("array size in %q: %v", line, err)
			}
			var toks []string
			for sc.Scan() && sc.Text() != "};" {
				for _, tok := range strings.Split(strings.TrimSpace(sc.Text()), ",") {
					if tok != "" {
						toks = append(toks, tok)
					}
				}
			}
			if len(toks) != n {
				t.Fatalf("%s declares %d elements, initializes %d", name, n, len(toks))
			}
			store(f[2], name, toks)
		default:
			t.Fatalf("unrecognized header line %q", line)
		}
	}
	return h
}

// expectedHeader derives, straight from the program the executor runs,
// every value the header must carry.
func expectedHeader(m *Int8Model, id string) cHeader {
	up := strings.ToUpper(id)
	h := cHeader{guards: []string{"SOLARML_" + up + "_H"}, defines: map[string]int64{},
		ints: map[string][]int64{}, doubles: map[string][]float64{}}
	def := func(k string, v int) { h.defines[up+"_"+k] = int64(v) }
	def("WEIGHT_BITS", m.wbits)
	def("ACT_BITS", m.abits)
	def("CLASSES", m.classes)
	def("INPUT_RANK", len(m.inShape))
	for i, d := range m.inShape {
		def(fmt.Sprintf("INPUT_DIM_%d", i), d)
	}
	def("MAX_ACT", m.maxAct)
	def("MAX_ACC", m.maxAcc)
	def("MAX_COLS", m.maxCols)
	def("NUM_OPS", len(m.ops))
	for k, n := range int8OpNames {
		def("OP_"+strings.ToUpper(n), k)
	}
	h.doubles[id+"_input_scale"] = []float64{m.inScale}
	for i, op := range m.ops {
		relu := 0
		if op.relu {
			relu = 1
		}
		for k, v := range map[string]int{"KIND": int(op.kind), "RELU": relu,
			"IN_C": op.inC, "OUT_C": op.outC, "K": op.k, "STRIDE": op.stride, "PAD": op.pad,
			"IN_H": op.inH, "IN_W": op.inW, "OUT_H": op.outH, "OUT_W": op.outW, "IN": op.in, "OUT": op.out} {
			def(fmt.Sprintf("OP%d_%s", i, k), v)
		}
		arr := fmt.Sprintf("%s_op%d_", id, i)
		for _, q := range op.w {
			h.ints[arr+"w"] = append(h.ints[arr+"w"], int64(q))
		}
		for name, v := range map[string][]int32{"bias": op.bias, "mult": op.mult, "shift": op.shift, "bias_post": op.biasPost} {
			for _, x := range v {
				h.ints[arr+name] = append(h.ints[arr+name], int64(x))
			}
		}
		for name, v := range map[string][]float64{"deq": op.deq, "bias_f": op.biasF} {
			if len(v) > 0 {
				h.doubles[arr+name] = v
			}
		}
	}
	return h
}

func exportHeader(t *testing.T, m *Int8Model, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.ExportCHeader(&buf, name); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestExportCHeaderStructure(t *testing.T) {
	m := allOpsModel(t)
	out := string(exportHeader(t, m, "gesture-digits"))
	for _, want := range []string{
		"#ifndef SOLARML_GESTURE_DIGITS_H",
		"#include <stdint.h>",
		"#define GESTURE_DIGITS_WEIGHT_BITS 6\n",
		"#define GESTURE_DIGITS_ACT_BITS 7\n",
		"static const double gesture_digits_input_scale = ",
		"static const int8_t gesture_digits_op0_w[",
		"#endif /* SOLARML_GESTURE_DIGITS_H */\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("header missing %q", want)
		}
	}
	if n := strings.Count(out, "/* op "); n != len(m.ops) {
		t.Fatalf("%d op sections for %d ops", n, len(m.ops))
	}
}

// TestExportCHeaderValuesRoundTrip parses every #define and array of the
// header of a program covering all op kinds and compares each, exactly,
// with the op fields Int8Executor reads.
func TestExportCHeaderValuesRoundTrip(t *testing.T) {
	m := allOpsModel(t)
	got := parseCHeader(t, exportHeader(t, m, "m"))
	want := expectedHeader(m, "m")
	if !reflect.DeepEqual(got.guards, want.guards) {
		t.Fatalf("guards %v, want %v", got.guards, want.guards)
	}
	if !reflect.DeepEqual(got.defines, want.defines) {
		for k, v := range want.defines {
			if got.defines[k] != v {
				t.Errorf("#define %s = %d, want %d", k, got.defines[k], v)
			}
		}
		t.Fatalf("defines differ: %d parsed, %d expected", len(got.defines), len(want.defines))
	}
	if !reflect.DeepEqual(got.ints, want.ints) {
		for k, v := range want.ints {
			if !reflect.DeepEqual(got.ints[k], v) {
				t.Errorf("array %s = %v, want %v", k, got.ints[k], v)
			}
		}
		t.Fatalf("integer arrays differ: %d parsed, %d expected", len(got.ints), len(want.ints))
	}
	if len(got.doubles) != len(want.doubles) {
		t.Fatalf("%d double arrays, want %d", len(got.doubles), len(want.doubles))
	}
	for k, v := range want.doubles {
		g := got.doubles[k]
		if len(g) != len(v) {
			t.Fatalf("%s has %d doubles, want %d", k, len(g), len(v))
		}
		for i := range v {
			if math.Float64bits(g[i]) != math.Float64bits(v[i]) {
				t.Fatalf("%s[%d] = %v, want exactly %v", k, i, g[i], v[i])
			}
		}
	}
}

// TestExportCHeaderMatchesDecodedModel pins that the header is a function
// of the persisted program: exporting the model and exporting its .q8
// round trip give the same bytes.
func TestExportCHeaderMatchesDecodedModel(t *testing.T) {
	m := allOpsModel(t)
	var q8 bytes.Buffer
	if err := SaveInt8Model(&q8, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadInt8Model(&q8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportHeader(t, m, "m"), exportHeader(t, m2, "m")) {
		t.Fatal("header from the decoded .q8 differs from the in-memory model's")
	}
}

// TestExportCHeaderCompiles checks the header is valid, warning-free C99
// when a C compiler is installed.
func TestExportCHeaderCompiles(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler on PATH")
	}
	path := filepath.Join(t.TempDir(), "model.h")
	if err := os.WriteFile(path, exportHeader(t, allOpsModel(t), "all-ops"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(cc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-x", "c", path).CombinedOutput()
	if err != nil {
		t.Fatalf("%v: %s", err, out)
	}
}

func TestSanitizeIdent(t *testing.T) {
	cases := map[string]string{
		"gesture-digits": "gesture_digits",
		"2fast":          "m2fast",
		"":               "model",
		"ok_name":        "ok_name",
	}
	for in, want := range cases {
		if got := sanitizeIdent(in); got != want {
			t.Fatalf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
