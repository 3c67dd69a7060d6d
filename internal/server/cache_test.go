package server

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// lruKeys lists the cache's keys in each order.
func lruKeys(c *lru) []string {
	var out []string
	c.each(func(key string, _ any) { out = append(out, key) })
	return out
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU(3)
	for _, k := range []string{"a", "b", "c"} {
		if c.Put(k, k) {
			t.Fatalf("Put(%s) evicted below capacity", k)
		}
	}
	if _, ok := c.Get("a"); !ok { // a becomes most recent
		t.Fatal("Get(a) missed")
	}
	if !c.Put("d", "d") {
		t.Fatal("Put(d) over capacity did not evict")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b, the least recently used, survived")
	}
	if got, want := lruKeys(c), []string{"c", "a", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("each = %v, want %v", got, want)
	}
	// Refreshing an existing key never evicts and updates the value.
	if c.Put("c", "c2") {
		t.Error("refreshing Put evicted")
	}
	if v, _ := c.Get("c"); v != "c2" {
		t.Errorf("Get(c) = %v, want c2", v)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

func TestLRUDemotedEvictedFirst(t *testing.T) {
	c := newLRU(4)
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, k)
	}
	c.Demote("c")
	c.Demote("b")
	c.Demote("missing") // no-op
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// each: demoted (oldest demotion first), then live, LRU first.
	if got, want := lruKeys(c), []string{"c", "b", "a", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("each = %v, want %v", got, want)
	}
	// A Get keeps a demoted entry demoted, refreshing it there.
	if _, ok := c.Get("c"); !ok {
		t.Fatal("Get(c) missed")
	}
	if got, want := lruKeys(c), []string{"b", "c", "a", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("after Get(c) each = %v, want %v", got, want)
	}
	// Demoting an already demoted key leaves it in place.
	c.Demote("c")
	if got, want := lruKeys(c), []string{"b", "c", "a", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("after re-Demote(c) each = %v, want %v", got, want)
	}
	// Evictions take the demoted entries before the live a.
	c.Put("e", "e")
	c.Put("f", "f")
	if got, want := lruKeys(c), []string{"a", "d", "e", "f"}; !reflect.DeepEqual(got, want) {
		t.Errorf("after two inserts each = %v, want %v", got, want)
	}
	c.Put("g", "g")
	if _, ok := c.Get("a"); ok {
		t.Error("a survived once no demoted entry was left")
	}
	// Put of a demoted key revives it as the most recent live entry.
	c.Demote("d")
	c.Put("d", "d2")
	if got, want := lruKeys(c), []string{"e", "f", "g", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("after reviving d each = %v, want %v", got, want)
	}
}

func TestLRUCapacityZero(t *testing.T) {
	c := newLRU(0)
	if c.Put("a", 1) {
		t.Error("Put evicted with caching disabled")
	}
	c.Demote("a")
	if _, ok := c.Get("a"); ok {
		t.Error("Get hit with caching disabled")
	}
	if c.Len() != 0 || len(lruKeys(c)) != 0 {
		t.Errorf("Len = %d, each = %v, want empty", c.Len(), lruKeys(c))
	}
}

// TestLRUConcurrent drives Put, Get and Demote from several goroutines
// (run it under -race); the cache must never hold more than its
// capacity.
func TestLRUConcurrent(t *testing.T) {
	const capacity = 16
	c := newLRU(capacity)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("%d:%d", g, i)
				c.Put(k, i)
				c.Get(fmt.Sprintf("%d:%d", g, i/2))
				if i > 0 {
					c.Demote(fmt.Sprintf("%d:%d", g, i-1))
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(lruKeys(c)); n != capacity || c.Len() != capacity {
		t.Errorf("each visited %d, Len = %d, want %d", n, c.Len(), capacity)
	}
}
