package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the artifact reader. Properties: Read
// never panics, and an artifact it accepts is a fixed point of write →
// read → write: the written artifact reads back, and writing that gives
// the same bytes. (Read keeps only the fields a checkpoint has, so the
// first write need not give back the input.) `go test` runs the seed
// corpus in testdata/fuzz/FuzzRead: a one-region checkpoint of a
// one-router line, a minimal artifact with every section, and the two
// with a wrong digest and a wrong format; run
// `go test -fuzz FuzzRead ./internal/checkpoint` to search.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, cp); err != nil {
			t.Fatalf("accepted artifact does not write: %v", err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written artifact does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Write(&second, back); err != nil {
			t.Fatalf("read-back artifact does not write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write → read → write changed the artifact:\n first %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}
