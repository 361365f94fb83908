package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzParseRequest feeds arbitrary POST /solve bodies through the same
// decode and admission path as handleSolve, minus the solve. It must
// never panic, it must accept and reject exactly the bodies the
// reflective decoder does, with the same values (see reflectRequest),
// an accepted body must be exactly one JSON value that json.Decoder
// reads into the same Request, and an accepted
// request must yield a stencil whose weight vector covers every vertex
// — for the structured form, exactly the weights the request sent, in
// 3D exactly when z > 0 (a negative z is refused).
func FuzzParseRequest(f *testing.F) {
	checkMirror(f)
	for _, seed := range []string{
		`{"alg":"GLL","x":2,"y":2,"weights":[1,2,3,4]}`,
		`{"alg":"BDL","x":2,"y":1,"z":2,"weights":[1,2,3,4]}`,
		`{"tenant":"t","instance":"ivc2d 2 2\n1 2\n3 4\n"}`,
		`{"instance":"ivc3d 1 1 2\n5 6\n","async":true}`,
		`{"x":16384,"y":16384}`,
		`{"x":512,"y":512,"z":512}`,
		`{"instance":"ivc2d 16384 16384\n"}`,
		`{"instance":"ivc3d 512 512 512\n"}`,
		`{"instance":"ivc2d 2 1\n9223372036854775807 9223372036854775807\n"}`,
		`{"alg":"GLL","shards":4,"x":2,"y":2,"weights":[1,2,3,4]}`,
		`{"alg":"GLL","x":2,"y":2,"weights":[1,2,3,4]}{"alg":"BD"}`,
		`{"x":2,"y":2,"z":-1,"weights":[1,2,3,4]}`,
		`{"x":2,"y":2,"weights":[1,null,3,4]}`,
		`{"x":1,"y":1,"weights":[-0]}`,
		`{"x":1,"y":1,"weights":[1.0]}`,
		`{"x":1,"y":1,"weights":[1e2]}`,
		`{"x":1,"y":1,"weights":[9223372036854775808]}`,
		`{"x":1,"y":1,"weights":["1"]}`,
		`{"x":1,"y":1,"weights":[[1]]}`,
		"{\"x\":2,\"y\":2,\"weights\":[ 1 ,\n2,\t3\r\n,4\n]\n}",
		`{"x":2,"y":1,"weights":[1,2,3],"weights":[null,5]}`,
		`{"x":3,"y":1,"weights":[1,2,3],"weights":[4],"weights":[null,null,null]}`,
		`{"x":2,"y":1,"Weights":[1,2]}`,
		`{"x":2,"y":1,"weights":null}`,
		`{"x":2,"y":1,"weights":[]}`,
		// Keys in any case: encoding/json matches them under Unicode
		// case folding (U+017F folds to s), exactly first.
		`{"ALG":"GLL","X":1,"Y":1,"WEIGHTS":[7]}`,
		`{"aſync":true,"x":1,"y":1,"weights":[7]}`,
		`{"alg":"GLL","Alg":"BD","aLG":null,"x":1,"y":1,"weights":[7]}`,
		`{"\u0061lg":"G\u004cL","\u0078":1,"y":1,"weights":[7]}`,
		`{"tenant\u0000":"t","x":1,"y":1,"weights":[7]}`,
		// Duplicate keys: the last value wins, a null keeps a scalar,
		// and a repeated weights array fills the earlier one's backing.
		`{"x":1,"x":2,"y":1,"x":null,"weights":[1,2]}`,
		`{"x":2,"y":1,"weights":[1,2,3,4],"weights":[],"weights":[null,null]}`,
		`{"x":2,"y":1,"weights":[8,9],"weights":null,"weights":[null,6]}`,
		// Strings: escapes, lone surrogates and invalid UTF-8 all
		// decode, the last two as U+FFFD.
		`{"tenant":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00","x":1,"y":1,"weights":[7]}`,
		`{"tenant":"\ud800","x":1,"y":1,"weights":[7]}`,
		`{"tenant":"\udc00\ud800\u0041\ud800\ud800\udc00","x":1,"y":1,"weights":[7]}`,
		"{\"tenant\":\"\xff\xfe\xed\xa0\x80\xc3\",\"x\":1,\"y\":1,\"weights\":[7]}",
		"{\"tenant\":\"na\u00efve\",\"x\":1,\"y\":1,\"weights\":[7]}",
		`{"tenant":"\x","x":1,"y":1,"weights":[7]}`,
		`{"tenant":"\u12","x":1,"y":1,"weights":[7]}`,
		"{\"tenant\":\"a\tb\",\"x\":1,\"y\":1,\"weights\":[7]}",
		// Top-level values other than one object.
		`null`,
		" null \n",
		`[]`,
		``,
		" \t\r\n",
		`{} x`,
		`{}`,
		`{"x":1,}`,
		`{"x":1`,
		`"x"`,
		// Scalars encoding/json will not store in the field's type.
		`{"x":1e2,"y":1,"weights":[7]}`,
		`{"timeout_ms":1.0,"x":1,"y":1,"weights":[7]}`,
		`{"x":9223372036854775808,"y":1,"weights":[7]}`,
		`{"timeout_ms":-9223372036854775808,"x":1,"y":1,"weights":[7]}`,
		`{"x":"2","y":1,"weights":[7]}`,
		`{"x":01,"y":1,"weights":[7]}`,
		`{"x":-0,"y":1,"weights":[7],"timeout_ms":-0}`,
		`{"async":null,"x":1,"y":1,"weights":[7]}`,
		`{"async":1,"x":1,"y":1,"weights":[7]}`,
		`{"alg":7,"x":1,"y":1,"weights":[7]}`,
		`{"x":1,"y":1,"weights":[7],"weights":{}}`,
		`{"x":1,"y":1,"weights":[,7]}`,
		`{"x":2,"y":1,"weights":[7,,]}`,
		`{"x":2,"y":1,"weights":[7 8]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		want, werr := reflectRequest(body)
		if (err == nil) != (werr == nil) {
			t.Fatalf("Weights decoder error %v, reflective decoder error %v", err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("Weights decoder read %+v, reflective decoder %+v", req, want)
		}
		if !json.Valid(body) {
			t.Fatalf("accepted body %q is not exactly one JSON value", body)
		}
		// An encoding/json reader of Request reads weights through
		// Weights.UnmarshalJSON, decodeRequest's own array parser.
		var viaJSON Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&viaJSON); err != nil || !reflect.DeepEqual(viaJSON, want) {
			t.Fatalf("json.Decoder into Request read %+v, %v; reflective decoder %+v", viaJSON, err, want)
		}
		_, _, s, err := parseRequest(&req)
		if err != nil {
			return
		}
		w, _, _, _ := s.Lattice()
		if len(w) != s.Len() {
			t.Fatalf("stencil has %d vertices but %d weights", s.Len(), len(w))
		}
		if req.Instance == "" && len(req.Weights) != s.Len() {
			t.Fatalf("stencil has %d vertices, request sent %d weights", s.Len(), len(req.Weights))
		}
		if req.Instance == "" && (req.Z < 0 || (req.Z > 0) != (s.Dims() == 3)) {
			t.Fatalf("z=%d built a %dD stencil", req.Z, s.Dims())
		}
	})
}

// mirrorRequest is Request with a plain []int64 Weights: decoding into
// it is what decodeRequest did before Weights had its own decoder.
type mirrorRequest struct {
	Tenant    string  `json:"tenant,omitempty"`
	Alg       string  `json:"alg,omitempty"`
	X         int     `json:"x,omitempty"`
	Y         int     `json:"y,omitempty"`
	Z         int     `json:"z,omitempty"`
	Weights   []int64 `json:"weights,omitempty"`
	Instance  string  `json:"instance,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	Async     bool    `json:"async,omitempty"`
}

// checkMirror fails unless mirrorRequest has Request's fields, names
// and tags, so the reference decoder tracks the request shape.
func checkMirror(tb testing.TB) {
	rt, mt := reflect.TypeOf(Request{}), reflect.TypeOf(mirrorRequest{})
	if rt.NumField() != mt.NumField() {
		tb.Fatalf("Request has %d fields, mirrorRequest %d", rt.NumField(), mt.NumField())
	}
	for i := 0; i < rt.NumField(); i++ {
		rf, mf := rt.Field(i), mt.Field(i)
		if rf.Name != mf.Name || rf.Tag != mf.Tag || rf.Type.Kind() != mf.Type.Kind() {
			tb.Fatalf("field %d: Request has %s %s %q, mirrorRequest %s %s %q",
				i, rf.Name, rf.Type, rf.Tag, mf.Name, mf.Type, mf.Tag)
		}
	}
}

// reflectRequest decodes body as decodeRequest does (unknown fields and
// trailing data refused), but reflectively into mirrorRequest.
func reflectRequest(body []byte) (Request, error) {
	var m mirrorRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Request{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Request{}, errors.New("trailing data after the request object")
	}
	return Request{Tenant: m.Tenant, Alg: m.Alg, X: m.X, Y: m.Y, Z: m.Z, Weights: m.Weights,
		Instance: m.Instance, TimeoutMS: m.TimeoutMS, Async: m.Async}, nil
}
