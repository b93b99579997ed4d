package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

func encodeInputs(t *testing.T, seed uint64) []byte {
	t.Helper()
	b, err := json.Marshal(genInputs(seed, 2, proxyPMIDs))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenSeed1 is the digest of seed 1's inputs. It changes only when
// the generator does, and then every recorded result is void.
const goldenSeed1 = "20368157b5d89db62d9f9a7d70b91d01733742c39aad2f18732635f1513a9934"

// TestInputsByteIdentical: a seed always generates the same bytes, and
// another seed other bytes.
func TestInputsByteIdentical(t *testing.T) {
	a, b := encodeInputs(t, 1), encodeInputs(t, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 1 generated different inputs twice")
	}
	if bytes.Equal(a, encodeInputs(t, 2)) {
		t.Fatal("seeds 1 and 2 generated the same inputs")
	}
	sum := sha256.Sum256(a)
	if got := hex.EncodeToString(sum[:]); got != goldenSeed1 {
		t.Errorf("seed 1 inputs digest %s, want %s", got, goldenSeed1)
	}
}

// TestProxySetsShareHalf: each connection's batch is setsPerBatch
// distinct sets of setSize distinct PMIDs, the first half shared by
// every connection and the rest its own.
func TestProxySetsShareHalf(t *testing.T) {
	in := genInputs(7, 2, proxyPMIDs)
	seen := map[string]int{}
	for c, batch := range in.Sets {
		if len(batch) != setsPerBatch {
			t.Fatalf("connection %d has %d sets", c, len(batch))
		}
		for _, set := range batch {
			ids := map[uint32]bool{}
			for _, id := range set {
				if id < 1 || id > proxyPMIDs || ids[id] {
					t.Fatalf("set %v: bad or repeated PMID %d", set, id)
				}
				ids[id] = true
			}
			seen[string(setKey(set))]++
		}
	}
	shared := 0
	for _, n := range seen {
		if n == 2 {
			shared++
		}
	}
	if shared != sharedSets || len(seen) != 2*setsPerBatch-sharedSets {
		t.Errorf("%d shared sets of %d distinct, want %d of %d", shared, len(seen), sharedSets, 2*setsPerBatch-sharedSets)
	}
}
