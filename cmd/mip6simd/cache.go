package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"mip6mcast/internal/exp"
)

// resultCache maps canonical spec keys (checkpoint.Meta.CacheKey form) to
// finished results. Entries live in memory and, when a directory is
// configured, as one JSON file per key so a restarted daemon serves them
// again, once their checksum verifies. Only clean results (no failed
// cells) are ever stored.
type resultCache struct {
	mu  sync.Mutex
	dir string
	mem map[string]*exp.JSONResult
}

// cacheFile is the on-disk entry: the full key guards against the
// (astronomically unlikely, but checkable) hash collision and makes the
// files self-describing, and Sum, the SHA-256 of the compact JSON
// encoding of Result, catches an entry altered on disk that still parses.
type cacheFile struct {
	Key    string          `json:"key"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// resultSum returns the hex SHA-256 of a compact JSON result encoding.
func resultSum(compact []byte) string {
	sum := sha256.Sum256(compact)
	return hex.EncodeToString(sum[:])
}

func newResultCache(dir string) (*resultCache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("-cache-dir: %v", err)
		}
	}
	return &resultCache{dir: dir, mem: map[string]*exp.JSONResult{}}, nil
}

func (c *resultCache) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(c.dir, fmt.Sprintf("%016x.json", h.Sum64()))
}

func (c *resultCache) get(key string) (*exp.JSONResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if jr, ok := c.mem[key]; ok {
		return jr, true
	}
	if c.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	// An entry that does not parse, carries another key or fails its
	// checksum is a miss: the run is recomputed and its put replaces the
	// file.
	var cf cacheFile
	if err := json.Unmarshal(data, &cf); err != nil || cf.Key != key {
		return nil, false
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, cf.Result); err != nil || resultSum(compact.Bytes()) != cf.Sum {
		return nil, false
	}
	jr := new(exp.JSONResult)
	if err := json.Unmarshal(compact.Bytes(), jr); err != nil {
		return nil, false
	}
	c.mem[key] = jr
	return jr, true
}

func (c *resultCache) put(key string, jr *exp.JSONResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = jr
	if c.dir == "" {
		return
	}
	result, err := json.Marshal(jr)
	if err != nil {
		return
	}
	data, err := json.MarshalIndent(cacheFile{Key: key, Sum: resultSum(result), Result: result}, "", " ")
	if err != nil {
		return
	}
	// Best-effort persistence: a write failure degrades to memory-only.
	tmp := c.path(key) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return
	}
	os.Rename(tmp, c.path(key))
}
