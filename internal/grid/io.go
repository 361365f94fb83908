package grid

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The instance text format is a small, line-oriented exchange format:
//
//	ivc2d X Y          or   ivc3d X Y Z
//	w w w ...              (X*Y or X*Y*Z weights, whitespace separated,
//	                        any line breaking, '#' starts a comment)
//
// It is what cmd/ivc reads and what the dataset suite can export, so users
// can run the heuristics on their own voxelized workloads.

// Write2D encodes g in the instance text format, one row per line.
func Write2D(w io.Writer, g *Grid2D) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ivc2d %d %d\n", g.X, g.Y)
	for j := 0; j < g.Y; j++ {
		for i := 0; i < g.X; i++ {
			if i > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteString(strconv.FormatInt(g.At(i, j), 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Write3D encodes g in the instance text format, one row per line with a
// blank line between layers.
func Write3D(w io.Writer, g *Grid3D) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ivc3d %d %d %d\n", g.X, g.Y, g.Z)
	for k := 0; k < g.Z; k++ {
		for j := 0; j < g.Y; j++ {
			for i := 0; i < g.X; i++ {
				if i > 0 {
					bw.WriteByte(' ')
				}
				bw.WriteString(strconv.FormatInt(g.At(i, j, k), 10))
			}
			bw.WriteByte('\n')
		}
		if k+1 < g.Z {
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// Read parses an instance in the text format and returns exactly one of a
// 2D or 3D grid, the other being nil. Fields are separated as
// strings.Fields separates them (any Unicode white space), and the
// weights are parsed in place from the scanner's buffer into one slice
// that the grid then keeps.
func Read(r io.Reader) (*Grid2D, *Grid3D, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	line, err := nextLine(sc)
	if err != nil {
		return nil, nil, fmt.Errorf("grid: missing header: %w", err)
	}
	header := strings.Fields(string(line))
	switch header[0] {
	case "ivc2d":
		if len(header) != 3 {
			return nil, nil, fmt.Errorf("grid: ivc2d header wants 2 dims, got %d", len(header)-1)
		}
		x, err1 := strconv.Atoi(header[1])
		y, err2 := strconv.Atoi(header[2])
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("grid: bad ivc2d dimensions %q %q", header[1], header[2])
		}
		n, err := cells2D(x, y)
		if err != nil {
			return nil, nil, err
		}
		weights, err := readWeights(sc, n)
		if err != nil {
			return nil, nil, err
		}
		g, err := wrap2D(x, y, weights)
		if err != nil {
			return nil, nil, err
		}
		return g, nil, nil
	case "ivc3d":
		if len(header) != 4 {
			return nil, nil, fmt.Errorf("grid: ivc3d header wants 3 dims, got %d", len(header)-1)
		}
		x, err1 := strconv.Atoi(header[1])
		y, err2 := strconv.Atoi(header[2])
		z, err3 := strconv.Atoi(header[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, fmt.Errorf("grid: bad ivc3d dimensions")
		}
		n, err := cells3D(x, y, z)
		if err != nil {
			return nil, nil, err
		}
		weights, err := readWeights(sc, n)
		if err != nil {
			return nil, nil, err
		}
		g, err := wrap3D(x, y, z, weights)
		if err != nil {
			return nil, nil, err
		}
		return nil, g, nil
	default:
		return nil, nil, fmt.Errorf("grid: unknown header %q", header[0])
	}
}

// nextLine returns the next line holding a field, with its comment cut
// off. The line aliases the scanner's buffer: it is valid until the
// next Scan.
func nextLine(sc *bufio.Scanner) ([]byte, error) {
	for sc.Scan() {
		line := sc.Bytes()
		if idx := bytes.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		if f, _ := nextField(line); len(f) > 0 {
			return line, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// nextField splits the first field off b under strings.Fields' rule —
// fields are maximal runs of bytes that do not decode to a
// unicode.IsSpace rune — without allocating. field is empty when b
// holds only white space.
func nextField(b []byte) (field, rest []byte) {
	start := spaceEnd(b, true)
	end := start + spaceEnd(b[start:], false)
	return b[start:end], b[end:]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceEnd returns the length of b's leading run of runes whose
// unicode.IsSpace equals space. ASCII bytes are looked up in a table;
// invalid UTF-8 decodes as RuneError, a non-space, as it does for
// strings.Fields.
func spaceEnd(b []byte, space bool) int {
	i := 0
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) != space {
			break
		}
		i += size
	}
	return i
}

// maxWeightPresize caps the weight buffer readWeights reserves up
// front. A header alone can claim up to 2^28 cells; reserving that
// before a single weight arrives would let a few bytes of input drive
// gigabytes of allocation. Larger instances grow the buffer as weights
// actually arrive.
const maxWeightPresize = 1 << 16

// readWeights reads exactly n weights.
func readWeights(sc *bufio.Scanner, n int) ([]int64, error) {
	weights := make([]int64, 0, min(n, maxWeightPresize))
	for len(weights) < n {
		line, err := nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("grid: want %d weights, got %d: %w", n, len(weights), err)
		}
		for f, rest := nextField(line); len(f) > 0; f, rest = nextField(rest) {
			w, err := strconv.ParseInt(string(f), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("grid: bad weight %q: %w", f, err)
			}
			weights = append(weights, w)
			if len(weights) > n {
				return nil, fmt.Errorf("grid: more than %d weights", n)
			}
		}
	}
	return weights, nil
}
