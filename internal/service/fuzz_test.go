package service

import (
	"bytes"
	"testing"

	"stencilivc/internal/grid"
)

// FuzzParseRequest feeds arbitrary POST /solve bodies through the same
// decode and admission path as handleSolve, minus the solve. It must
// never panic, and an accepted request must yield a stencil whose
// weight vector covers every vertex — for the structured form, exactly
// the weights the request sent.
func FuzzParseRequest(f *testing.F) {
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		_, _, s, err := parseRequest(&req)
		if err != nil {
			return
		}
		var w []int64
		switch g := s.(type) {
		case *grid.Grid2D:
			w = g.W
		case *grid.Grid3D:
			w = g.W
		default:
			t.Fatalf("accepted request built a %T", s)
		}
		if len(w) != s.Len() {
			t.Fatalf("stencil has %d vertices but %d weights", s.Len(), len(w))
		}
		if req.Instance == "" && len(req.Weights) != s.Len() {
			t.Fatalf("stencil has %d vertices, request sent %d weights", s.Len(), len(req.Weights))
		}
	})
}
