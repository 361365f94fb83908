package grid

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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
// 2D or 3D grid, the other being nil.
func Read(r io.Reader) (*Grid2D, *Grid3D, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	header, err := nextTokens(sc)
	if err != nil {
		return nil, nil, fmt.Errorf("grid: missing header: %w", err)
	}
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
		g, err := FromWeights2D(x, y, weights)
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
		g, err := FromWeights3D(x, y, z, weights)
		if err != nil {
			return nil, nil, err
		}
		return nil, g, nil
	default:
		return nil, nil, fmt.Errorf("grid: unknown header %q", header[0])
	}
}

func nextTokens(sc *bufio.Scanner) ([]string, error) {
	for sc.Scan() {
		line := sc.Text()
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) > 0 {
			return fields, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
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
		fields, err := nextTokens(sc)
		if err != nil {
			return nil, fmt.Errorf("grid: want %d weights, got %d: %w", n, len(weights), err)
		}
		for _, f := range fields {
			w, err := strconv.ParseInt(f, 10, 64)
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
