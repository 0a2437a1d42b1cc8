//go:build !race

package experiments

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestJournalHeapIsIndexOnly pins what a journal keeps per entry: an
// index into the file, not the entry's bytes. Recording 1,000 entries of
// 10 KB each must leave the heap under 256 KB larger, where keeping the
// bytes costs 10 MB.
func TestJournalHeapIsIndexOnly(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"), JournalMeta{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	value := strings.Repeat("x", 10<<10)
	before := liveHeap()
	for i := 0; i < 1000; i++ {
		if err := j.Record(fmt.Sprintf("accept/j%08d", i), value); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(j)
	grew := int64(after) - int64(before)
	t.Logf("1,000 entries of 10 KB grew the heap by %d KB", grew>>10)
	if grew >= 256<<10 {
		t.Errorf("1,000 entries of 10 KB grew the heap by %d KB, want under 256 KB", grew>>10)
	}
}

// liveHeap returns the heap in use after two full collections, the
// second of which frees what sync.Pool caches kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
