package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrVertexCap is wrapped by ReadEdgeList's error when an edge list
// reaches its caller's vertex cap.
var ErrVertexCap = errors.New("vertex count at or above the cap")

// ReadEdgeList parses a whitespace-separated edge list, one "u v" pair per
// line. Lines beginning with '#' or '%' are comments, except that a
// "# vertices=N ..." header (as written by WriteEdgeList) fixes the vertex
// count so isolated vertices survive a round trip. Otherwise the count is
// 1 + the largest id seen.
//
// A positive vertexCap bounds the graph to fewer than vertexCap vertices:
// a header declaring, or an id implying, vertexCap or more vertices fails
// with ErrVertexCap as soon as its line is read, before anything is sized
// by the count. vertexCap <= 0 leaves only the int32 id range as a bound.
func ReadEdgeList(r io.Reader, vertexCap int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var edges []Edge
	maxID := int64(-1)
	declared := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "# vertices=") {
			rest := strings.TrimPrefix(line, "# vertices=")
			if i := strings.IndexByte(rest, ' '); i >= 0 {
				rest = rest[:i]
			}
			if n, err := strconv.ParseInt(rest, 10, 32); err == nil && n >= 0 {
				if vertexCap > 0 && n >= int64(vertexCap) {
					return nil, fmt.Errorf("graph: line %d: %d vertices declared: %w (%d)", lineNo, n, ErrVertexCap, vertexCap)
				}
				declared = n
			}
			continue
		}
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		if vertexCap > 0 && maxID+1 >= int64(vertexCap) {
			return nil, fmt.Errorf("graph: line %d: vertex id %d: %w (%d)", lineNo, maxID, ErrVertexCap, vertexCap)
		}
		edges = append(edges, Edge{VertexID(u), VertexID(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	n := maxID + 1
	if declared > n {
		n = declared
	}
	return New(int(n), edges)
}

// WriteEdgeList writes the graph as a "u v" edge list with u < v.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vertices=%d edges=%d\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if u > VertexID(v) {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			}
		}
	}
	return bw.Flush()
}

const binaryMagic = 0x53474e53 // "SGNS": Shogun Graph, Native byte Stream

// WriteBinary serializes the CSR arrays in a compact little-endian format.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := [3]uint64{binaryMagic, uint64(g.NumVertices()), uint64(len(g.neighbors))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.neighbors); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	const maxElems = int64(1) << 31
	if hdr[1] >= uint64(maxElems) || hdr[2] >= uint64(maxElems) {
		return nil, fmt.Errorf("graph: implausible header (n=%d, m=%d)", hdr[1], hdr[2])
	}
	n, m := int(hdr[1]), int(hdr[2])
	// Read in bounded chunks so corrupt headers fail on EOF before any
	// oversized allocation happens.
	offsets, err := readInt64s(br, n+1)
	if err != nil {
		return nil, err
	}
	neighbors, err := readInt32s(br, m)
	if err != nil {
		return nil, err
	}
	g := &Graph{offsets: offsets, neighbors: neighbors}
	if g.offsets[0] != 0 {
		return nil, fmt.Errorf("graph: corrupt offsets origin %d", g.offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] || g.offsets[v+1] > int64(m) {
			return nil, fmt.Errorf("graph: corrupt offsets at vertex %d", v)
		}
		if d := int(g.offsets[v+1] - g.offsets[v]); d > g.maxDegree {
			g.maxDegree = d
		}
	}
	for _, u := range g.neighbors {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("graph: neighbor id %d out of range [0,%d)", u, n)
		}
	}
	return g, nil
}

const readChunk = 1 << 16

// readInt64s reads exactly k little-endian int64s, growing the slice in
// bounded chunks so truncated or hostile inputs fail before large
// allocations.
func readInt64s(r io.Reader, k int) ([]int64, error) {
	out := make([]int64, 0, min64(k, readChunk))
	buf := make([]int64, 0)
	for len(out) < k {
		c := k - len(out)
		if c > readChunk {
			c = readChunk
		}
		if cap(buf) < c {
			buf = make([]int64, c)
		}
		buf = buf[:c]
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

// readInt32s reads exactly k little-endian int32s in bounded chunks.
func readInt32s(r io.Reader, k int) ([]VertexID, error) {
	out := make([]VertexID, 0, min64(k, readChunk))
	buf := make([]VertexID, 0)
	for len(out) < k {
		c := k - len(out)
		if c > readChunk {
			c = readChunk
		}
		if cap(buf) < c {
			buf = make([]VertexID, c)
		}
		buf = buf[:c]
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

func min64(a, b int) int {
	if a < b {
		return a
	}
	return b
}
