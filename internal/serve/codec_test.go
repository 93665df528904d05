package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"solarml/internal/obs"
)

// classifyRequest is the POST /classify body as encoding/json sees it: the
// oracle the hand-written decoder is tested against.
type classifyRequest struct {
	Instances [][]float64 `json:"instances"`
}

// classifyResponse is the POST /classify reply as encoding/json sees it:
// the oracle appendReply is tested against.
type classifyResponse struct {
	Predictions []Result `json:"predictions"`
}

// numbersRow renders an instance of n copies of v.
func numbersRow(n int, v string) string {
	return "[" + strings.TrimSuffix(strings.Repeat(v+",", n), ",") + "]"
}

// TestClassifyReplyBytes pins the wire format: the reply is byte-identical
// to what json.NewEncoder wrote for the same predictions, and every logit
// is bit-equal to a private executor's.
func TestClassifyReplyBytes(t *testing.T) {
	m, calib := testModel(t)
	s, err := New(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	inVol := m.InVol()
	ex := m.NewExecutor(nil, 1)
	var instances [][]float64
	var want classifyResponse
	for i := 0; i < 3; i++ {
		x := calib.Data[i*inVol : (i+1)*inVol]
		logits := append([]float64(nil), ex.Forward(x, 1)...)
		cls := 0
		for j, v := range logits {
			if v > logits[cls] {
				cls = j
			}
		}
		instances = append(instances, x)
		want.Predictions = append(want.Predictions, Result{Class: cls, Logits: logits})
	}
	body, err := json.Marshal(classifyRequest{Instances: instances})
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes bytes.Buffer
	if err := json.NewEncoder(&wantBytes).Encode(want); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !bytes.Equal(got, wantBytes.Bytes()) {
		t.Fatalf("reply\n%s\nwant\n%s", got, wantBytes.Bytes())
	}
}

// TestDecodeNarrowings pins the body shapes encoding/json decoded but the
// fixed-schema decoder refuses with 400, and that JSON whitespace anywhere
// in the canonical schema is still accepted.
func TestDecodeNarrowings(t *testing.T) {
	m, _ := testModel(t)
	reg := obs.NewRegistry()
	s, err := New(Config{Model: m, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	row := numbersRow(m.InVol(), "0.5")
	nullValue := "[null," + numbersRow(m.InVol()-1, "0.5")[1:]
	for _, tc := range []struct{ name, body string }{
		{"unknown key after", `{"instances":[` + row + `],"extra":1}`},
		{"unknown key before", `{"extra":1,"instances":[` + row + `]}`},
		{"case-folded key", `{"Instances":[` + row + `]}`},
		{"upper-case key", `{"INSTANCES":[` + row + `]}`},
		{"escaped key", `{"\u0069nstances":[` + row + `]}`},
		{"duplicate key", `{"instances":[` + row + `],"instances":[` + row + `]}`},
		{"null row", `{"instances":[` + row + `,null]}`},
		{"null instances", `{"instances":null}`},
		{"null value", `{"instances":[` + nullValue + `]}`},
		{"trailing value", `{"instances":[` + row + `]}{}`},
		{"trailing garbage", `{"instances":[` + row + `]} x`},
	} {
		// encoding/json decoded each of these without error.
		var ref classifyRequest
		if err := json.NewDecoder(strings.NewReader(tc.body)).Decode(&ref); err != nil {
			t.Fatalf("%s: encoding/json refused the body: %v", tc.name, err)
		}
		if code := post(tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}

	spaced := " \r\n{\t\"instances\" :\n[ " + strings.ReplaceAll(row, ",", " ,\t") + " ,\n" + row + " ]\r} \n"
	if code := post(spaced); code != http.StatusOK {
		t.Fatalf("whitespace body: status %d, want 200", code)
	}
	if n := reg.Counter("serve.samples").Value(); n != 2 {
		t.Fatalf("serve.samples = %d, want 2", n)
	}
}

// TestDecodeLengthErrors pins where a wrong-length instance is refused and
// that the message names the instance and the model's input volume.
func TestDecodeLengthErrors(t *testing.T) {
	const inVol = 3
	row := func(int) []float64 { return make([]float64, inVol) }
	for _, tc := range []struct{ body, want string }{
		{`{"instances":[[1,2,3],[1,2,3,4,5]]}`, "serve: instance 1 has more than 3 values, model wants 3"},
		{`{"instances":[[1,2]]}`, "serve: instance 0 has 2 values, model wants 3"},
		{`{"instances":[[1,2,3],[]]}`, "serve: instance 1 has 0 values, model wants 3"},
	} {
		_, err := decodeInstances([]byte(tc.body), inVol, row)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.body, err, tc.want)
		}
	}
}

// TestDecodeRefusedNumbers pins the JSON number grammar: each value is
// refused with the offset and message given, in a one-value instance whose
// value starts at byte 15. A number that stops early (01, 0x10, 1_0) is
// refused at the byte after it, where a separator was due.
func TestDecodeRefusedNumbers(t *testing.T) {
	const prefix = `{"instances":[[`
	row := func(int) []float64 { return make([]float64, 1) }
	for _, tc := range []struct {
		value string
		off   int
		want  string
	}{
		{"01", 16, "',' or ']' in an instance"},
		{"1.", 17, "a digit after '.'"},
		{".5", 15, "a number"},
		{"1e", 17, "a digit in the exponent"},
		{"1e+", 18, "a digit in the exponent"},
		{"+1", 15, "a number"},
		{"-", 15, "a number"},
		{"--1", 15, "a number"},
		{"1.e5", 17, "a digit after '.'"},
		{"0x10", 16, "',' or ']' in an instance"},
		{"1_0", 16, "',' or ']' in an instance"},
		{"NaN", 15, "a number"},
		{"Infinity", 15, "a number"},
		{"-Infinity", 15, "a number"},
		{"1e999", 15, "a number within float64 range"},
		{"-1e999", 15, "a number within float64 range"},
		{"1" + strings.Repeat("0", 309), 15, "a number within float64 range"},
	} {
		body := prefix + tc.value + "]]}"
		want := (&syntaxError{tc.off, tc.want}).Error()
		if _, err := decodeInstances([]byte(body), 1, row); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", tc.value, err, want)
		}
		var ref classifyRequest
		if err := json.Unmarshal([]byte(body), &ref); err == nil {
			t.Errorf("%s: encoding/json accepted the body", tc.value)
		}
	}
}

// endlessBody is a request body that never ends: an instances array whose
// first instance goes on forever.
type endlessBody struct{ n int }

func (b *endlessBody) Read(p []byte) (int, error) {
	const prefix = `{"instances":[[`
	for i := range p {
		switch {
		case b.n < len(prefix):
			p[i] = prefix[b.n]
		case (b.n-len(prefix))%2 == 0:
			p[i] = '0'
		default:
			p[i] = ','
		}
		b.n++
	}
	return len(p), nil
}

// TestBodyCap pins the body limit: an endless body is refused with 413 once
// it passes the cap, counts as an error, and leaves the server's heap no
// larger than the cap. Reading allocates under 4× the cap: the body buffer
// doubles from 512 B to the largest power of two below the cap (under 2×
// in all) and then to the cap itself. An unbounded read would instead run
// until the test timed out.
func TestBodyCap(t *testing.T) {
	m, _ := testModel(t)
	reg := obs.NewRegistry()
	s, err := New(Config{Model: m, Reg: reg, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	limit := maxBodyBytes(m.InVol(), 256)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp, err := http.Post(srv.URL+"/classify", "application/json", &endlessBody{})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)

	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if n := reg.Counter("serve.errors").Value(); n != 1 {
		t.Fatalf("serve.errors = %d, want 1", n)
	}
	if retained >= limit {
		t.Errorf("heap grew by %d B over the request, want < the %d B cap", retained, limit)
	}
	if allocated >= 4*limit {
		t.Errorf("allocated %d B reading the body, want < 4× the %d B cap", allocated, limit)
	}
}

// TestStageHistograms checks that a request lands in every stage histogram
// (decode, queue, batch and encode) beside the end-to-end latency one, and
// that its queue time lies within its end-to-end latency.
func TestStageHistograms(t *testing.T) {
	m, calib := testModel(t)
	reg := obs.NewRegistry()
	s, err := New(Config{Model: m, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body, err := json.Marshal(classifyRequest{Instances: [][]float64{calib.Data[:m.InVol()]}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"serve.decode_seconds", "serve.queue_seconds", "serve.batch_seconds", "serve.encode_seconds", "serve.latency_seconds"} {
		if h := snap.Histograms[name]; h.Count != 1 {
			t.Errorf("%s count = %d, want 1", name, h.Count)
		}
	}
	if q, l := snap.Histograms["serve.queue_seconds"].Sum, snap.Histograms["serve.latency_seconds"].Sum; q < 0 || q > l {
		t.Errorf("queue time %gs outside the request's %gs", q, l)
	}
}

// sprinkle inserts JSON whitespace drawn from ws around every structural
// byte of a compact JSON document, and at both ends.
func sprinkle(doc, ws []byte) []byte {
	if len(ws) == 0 {
		return doc
	}
	k := 0
	pad := func(out []byte) []byte {
		w := ws[k%len(ws)]
		k++
		return append(out, bytes.Repeat([]byte{" \t\n\r"[w&3]}, int(w>>2)%3)...)
	}
	out := pad(nil)
	for _, c := range doc {
		if strings.IndexByte("{}[],:", c) >= 0 {
			out = append(pad(out), c)
			out = pad(out)
			continue
		}
		out = append(out, c)
	}
	return pad(out)
}

// sameBits reports whether two rows hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzClassifyCodec holds the hand-written codec to encoding/json:
//   - any body the decoder accepts, encoding/json accepts with the same
//     instances, bit for bit;
//   - a canonical body (json.Marshal output, whitespace sprinkled in) of
//     finite values is accepted with those values, bit for bit;
//   - the reply for finite logits is byte-identical to json.NewEncoder's.
func FuzzClassifyCodec(f *testing.F) {
	for _, body := range []string{
		`{"instances":[[1,2,3]]}`,
		` {"instances" : [ [ -0 , 5e-324 , 1E5 ] , [1.5e+02,-2.5E-3,0.1] ] } `,
		`{"instances":[[1,2]]}`,
		`{"instances":[]}`,
		`{"instances":[[1,2,3]]} x`,
		`{"Instances":[[1,2,3]]}`,
		`{"instances":[[01,2,3]]}`,
		`{"instances":[[1.,2,3]]}`,
		`{"instances":[[1e400,2,3]]}`,
		`{"instances":[[null,2,3]]}`,
	} {
		f.Add([]byte(body), uint8(2), 1.5, math.Copysign(0, -1), 5e-324, []byte{1, 6, 11}, uint8(1))
	}
	f.Add([]byte(`{"instances":[[1e-7]]}`), uint8(0), 1e-7, 1e21, -2.2250738585072014e-308, []byte{}, uint8(0))
	f.Add([]byte(`{"instances":[[123456789012345678901234567890]]}`), uint8(0), 0.1, -1e-6, 999999999999999999999.0, []byte{7}, uint8(2))
	f.Fuzz(func(t *testing.T, body []byte, vol uint8, a, b, c float64, ws []byte, cls uint8) {
		decode := func(body []byte, inVol int) ([][]float64, error) {
			var rows [][]float64
			n, err := decodeInstances(body, inVol, func(i int) []float64 {
				rows = append(rows, make([]float64, inVol))
				return rows[i]
			})
			return rows[:n:n], err
		}

		inVol := int(vol%4) + 1
		if rows, err := decode(body, inVol); err == nil {
			var ref classifyRequest
			if err := json.Unmarshal(body, &ref); err != nil {
				t.Fatalf("decoder accepted %q, encoding/json refused it: %v", body, err)
			}
			if len(ref.Instances) != len(rows) {
				t.Fatalf("%q: %d instances, encoding/json %d", body, len(rows), len(ref.Instances))
			}
			for i := range rows {
				if !sameBits(rows[i], ref.Instances[i]) {
					t.Fatalf("%q instance %d: %v, encoding/json %v", body, i, rows[i], ref.Instances[i])
				}
			}
		}

		vals := []float64{a, b, c}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // encoding/json encodes neither
			}
		}
		instances := [][]float64{{a, b, c}, {c, b, a}}
		canon, err := json.Marshal(classifyRequest{Instances: instances})
		if err != nil {
			t.Fatal(err)
		}
		spaced := sprinkle(canon, ws)
		rows, err := decode(spaced, 3)
		if err != nil {
			t.Fatalf("canonical body %q refused: %v", spaced, err)
		}
		if len(rows) != 2 || !sameBits(rows[0], instances[0]) || !sameBits(rows[1], instances[1]) {
			t.Fatalf("canonical body %q decoded to %v", spaced, rows)
		}

		preds := []Result{{Class: int(cls), Logits: vals}, {Class: 0, Logits: []float64{c, a}}}
		reqs := []*request{{cls: preds[0].Class, out: preds[0].Logits}, {cls: 0, out: preds[1].Logits}}
		got, err := appendReply(nil, reqs)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(classifyResponse{Predictions: preds}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("reply\n%s\nwant\n%s", got, want.Bytes())
		}
	})
}
