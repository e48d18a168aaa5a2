package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ErrVertexCap is wrapped by ReadEdgeList's error when an edge list
// reaches its caller's vertex cap.
var ErrVertexCap = errors.New("vertex count at or above the cap")

// ReadEdgeList parses a whitespace-separated edge list, one "u v" pair per
// line, and builds the graph. Lines beginning with '#' or '%' are
// comments, except that a "# vertices=N ..." header (as written by
// WriteEdgeList) fixes the vertex count so isolated vertices survive a
// round trip. Otherwise the count is 1 + the largest id seen.
//
// A positive vertexCap bounds the graph to fewer than vertexCap vertices:
// a header declaring, or an id implying, vertexCap or more vertices fails
// with ErrVertexCap as soon as its line is read, before anything is sized
// by the count. vertexCap <= 0 leaves only the int32 id range as a bound.
func ReadEdgeList(r io.Reader, vertexCap int) (*Graph, error) {
	n, edges, err := ParseEdgeList(r, vertexCap)
	if err != nil {
		return nil, err
	}
	return New(n, edges)
}

// ParseEdgeList is ReadEdgeList without the build: it returns the vertex
// count and the edges in input order, so a caller can charge the graph's
// size (see New) before anything is sized by it. Every id lies in [0, n).
//
// Lines are split by a bufio.Scanner and read in place. A line of two
// plain decimal ids is converted directly (plainEdge); any other line is
// trimmed and split with Unicode whitespace by bytes.Fields and its ids
// go to strconv.ParseInt, so every accepted line and every error text is
// that of strings.Fields and strconv.
func ParseEdgeList(r io.Reader, vertexCap int) (int, []Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var edges []Edge
	maxID := int64(-1)
	declared := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		u, v, ok := plainEdge(sc.Bytes())
		if !ok {
			line := bytes.TrimSpace(sc.Bytes())
			if rest, ok := bytes.CutPrefix(line, []byte("# vertices=")); ok {
				if i := bytes.IndexByte(rest, ' '); i >= 0 {
					rest = rest[:i]
				}
				if n, err := strconv.ParseInt(string(rest), 10, 32); err == nil && n >= 0 {
					if vertexCap > 0 && n >= int64(vertexCap) {
						return 0, nil, fmt.Errorf("graph: line %d: %d vertices declared: %w (%d)", lineNo, n, ErrVertexCap, vertexCap)
					}
					declared = n
				}
				continue
			}
			if len(line) == 0 || line[0] == '#' || line[0] == '%' {
				continue
			}
			fields := bytes.Fields(line)
			if len(fields) < 2 {
				return 0, nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
			}
			var err error
			if u, err = strconv.ParseInt(string(fields[0]), 10, 32); err != nil {
				return 0, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			if v, err = strconv.ParseInt(string(fields[1]), 10, 32); err != nil {
				return 0, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			if u < 0 || v < 0 {
				return 0, nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
			}
		}
		maxID = max(maxID, u, v)
		if vertexCap > 0 && maxID+1 >= int64(vertexCap) {
			return 0, nil, fmt.Errorf("graph: line %d: vertex id %d: %w (%d)", lineNo, maxID, ErrVertexCap, vertexCap)
		}
		edges = append(edges, Edge{VertexID(u), VertexID(v)})
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	return int(max(maxID+1, declared)), edges, nil
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// plainEdge reads the common line: ASCII spaces, one to ten digits,
// ASCII spaces, one to ten digits, then the line's end or an ASCII space,
// with both ids in the int32 range. Fields are the same whether split at
// ASCII or at Unicode whitespace up to the end of the second, and what
// follows it is ignored, so the ids are those of the general path. Any
// other line reports false.
func plainEdge(line []byte) (u, v int64, ok bool) {
	i := 0
	for i < len(line) && asciiSpace[line[i]] {
		i++
	}
	if u, i = digits(line, i); i < 0 || i == len(line) || !asciiSpace[line[i]] {
		return 0, 0, false
	}
	for i < len(line) && asciiSpace[line[i]] {
		i++
	}
	if v, i = digits(line, i); i < 0 || i < len(line) && !asciiSpace[line[i]] {
		return 0, 0, false
	}
	return u, v, true
}

// digits converts the run of up to ten digits at line[i:] and returns it
// with the index after it, or -1 for an empty run or one past the int32
// range.
func digits(line []byte, i int) (int64, int) {
	x, start := int64(0), i
	for i < len(line) && i-start < 10 && line[i]-'0' <= 9 {
		x = x*10 + int64(line[i]-'0')
		i++
	}
	if i == start || x > math.MaxInt32 {
		return 0, -1
	}
	return x, i
}

// WriteEdgeList writes the graph as a "u v" edge list with u < v.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vertices=%d edges=%d\n", g.NumVertices(), g.NumEdges())
	// The writer's error is sticky; Flush reports it.
	line := make([]byte, 0, 24)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if u > VertexID(v) {
				line = strconv.AppendInt(line[:0], int64(v), 10)
				line = append(line, ' ')
				line = strconv.AppendInt(line, int64(u), 10)
				bw.Write(append(line, '\n'))
			}
		}
	}
	return bw.Flush()
}
