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
	return writeText(w, fmt.Sprintf("ivc2d %d %d\n", g.x, g.y), &g.lattice)
}

// Write3D encodes g in the instance text format, one row per line with a
// blank line between layers.
func Write3D(w io.Writer, g *Grid3D) error {
	return writeText(w, fmt.Sprintf("ivc3d %d %d %d\n", g.x, g.y, g.z), &g.lattice)
}

// writeText writes header and then l's weights, one row per line with
// a blank line between layers.
func writeText(w io.Writer, header string, l *lattice) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(header)
	var num [20]byte
	for k := range l.z {
		if k > 0 {
			bw.WriteByte('\n')
		}
		for j := range l.y {
			for i, wt := range l.w[(k*l.y+j)*l.x:][:l.x] {
				if i > 0 {
					bw.WriteByte(' ')
				}
				bw.Write(strconv.AppendInt(num[:0], wt, 10))
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// Read parses an instance in the text format and returns exactly one of a
// 2D or 3D grid, the other being nil. Fields are separated as
// strings.Fields separates them (any Unicode white space), and the
// weights are parsed in place from the scanner's buffer into one slice
// that the grid then keeps. The scanner's buffer starts at 4 KiB, which
// holds a few rows, and doubles only for a longer line (up to 16 MiB).
func Read(r io.Reader) (*Grid2D, *Grid3D, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<24)
	line, err := nextLine(sc)
	if err != nil {
		return nil, nil, fmt.Errorf("grid: missing header: %w", err)
	}
	header := strings.Fields(string(line))
	var dims int
	switch header[0] {
	case "ivc2d":
		dims = 2
	case "ivc3d":
		dims = 3
	default:
		return nil, nil, fmt.Errorf("grid: unknown header %q", header[0])
	}
	if len(header) != dims+1 {
		return nil, nil, fmt.Errorf("grid: %s header wants %d dims, got %d", header[0], dims, len(header)-1)
	}
	ext := [3]int{1, 1, 1}
	for d, f := range header[1:] {
		if ext[d], err = strconv.Atoi(f); err != nil {
			if dims == 2 {
				return nil, nil, fmt.Errorf("grid: bad ivc2d dimensions %q %q", header[1], header[2])
			}
			return nil, nil, fmt.Errorf("grid: bad ivc3d dimensions")
		}
	}
	var n int
	if dims == 2 {
		n, err = cells2D(ext[0], ext[1])
	} else {
		n, err = cells3D(ext[0], ext[1], ext[2])
	}
	if err != nil {
		return nil, nil, err
	}
	weights, err := readWeights(sc, n)
	if err != nil {
		return nil, nil, err
	}
	ws, err := adoptWeights(n, weights)
	if err != nil {
		return nil, nil, err
	}
	l := lattice{ext[0], ext[1], ext[2], ws}
	if dims == 2 {
		return &Grid2D{l}, nil, nil
	}
	return nil, &Grid3D{l}, nil
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
		for i := 0; i < len(line); {
			if c := line[i]; c < utf8.RuneSelf && asciiSpace[c] {
				i++
				continue
			}
			// A field of 1–18 ASCII digits ended by an ASCII space or
			// the line's end cannot overflow and is parsed inline. Any
			// other field — a sign, a longer number, a non-ASCII byte,
			// which may be Unicode white space — is split off by
			// nextField and parsed by strconv.ParseInt, so its verdict
			// and error text stand.
			j, w := i, int64(0)
			for j < len(line) && line[j]-'0' <= 9 && j-i < 18 {
				w = w*10 + int64(line[j]-'0')
				j++
			}
			if j == i || j < len(line) && (line[j] >= utf8.RuneSelf || !asciiSpace[line[j]]) {
				f, rest := nextField(line[i:])
				if len(f) == 0 {
					break // only Unicode white space is left
				}
				if w, err = strconv.ParseInt(string(f), 10, 64); err != nil {
					return nil, fmt.Errorf("grid: bad weight %q: %w", f, err)
				}
				j = len(line) - len(rest)
			}
			weights = append(weights, w)
			if len(weights) > n {
				return nil, fmt.Errorf("grid: more than %d weights", n)
			}
			i = j
		}
	}
	return weights, nil
}
