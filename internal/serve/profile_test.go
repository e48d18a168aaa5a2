package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestLiveDaemonCPUProfile takes a 1 s CPU profile from a live daemon's
// own listener while simulations run and finds runLabeled's endpoint
// label on its samples: the labels reach a profile a client can fetch.
func TestLiveDaemonCPUProfile(t *testing.T) {
	_, base := testServer(t, Config{Workers: 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(base+"/v1/simulate", "application/json",
				bytes.NewReader([]byte(`{"dataset":"as","pattern":"tc"}`)))
			if err != nil {
				t.Errorf("simulate: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
		}
	}()
	resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("GET profile: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d", resp.StatusCode)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("profile is not gzipped: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := sampleLabels(raw)
	if err != nil {
		t.Fatalf("decode profile: %v", err)
	}
	if labels["endpoint=simulate"] == 0 || labels["pattern=tc"] == 0 {
		t.Fatalf("no sample labelled endpoint=simulate, pattern=tc; label counts: %v", labels)
	}
}

// sampleLabels decodes just enough of a profile.proto to count, per
// "key=value", the samples carrying each string label: Profile.sample
// (field 2) holds Sample.label (field 3), a Label's key (1) and str (2)
// index Profile.string_table (field 6).
func sampleLabels(raw []byte) (map[string]int, error) {
	type label struct{ key, str uint64 }
	var samples [][]label
	var strs []string
	err := protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var ls []label
			err := protoFields(b, func(field int, _ uint64, b []byte) error {
				if field != 3 {
					return nil
				}
				var l label
				err := protoFields(b, func(field int, v uint64, _ []byte) error {
					switch field {
					case 1:
						l.key = v
					case 2:
						l.str = v
					}
					return nil
				})
				ls = append(ls, l)
				return err
			})
			samples = append(samples, ls)
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, ls := range samples {
		for _, l := range ls {
			if l.key >= uint64(len(strs)) || l.str >= uint64(len(strs)) {
				return nil, fmt.Errorf("label index past the %d-entry string table", len(strs))
			}
			counts[strs[l.key]+"="+strs[l.str]]++
		}
	}
	return counts, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number and its varint value or length-delimited bytes.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad tag")
		}
		b = b[n:]
		field := int(tag >> 3)
		var v uint64
		var body []byte
		switch tag & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d in field %d", tag&7, field)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}
