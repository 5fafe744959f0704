package discovery

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// importCrashDirEnv hands the child process its data directory; the
// child half of TestImportBatchCrashNoTornBatch runs only when it is
// set.
const importCrashDirEnv = "DISCOVERY_IMPORT_CRASH_DIR"

// importCrashBatch is the entry count per ImportBatch in the crash test.
const importCrashBatch = 32

// importCrashEntries derives batch n's entries. Parent and child build
// them from the same pure function, so the parent can verify recovered
// state without any channel besides the acked batch numbers.
func importCrashEntries(n int) []ReplicaEntry {
	entries := make([]ReplicaEntry, importCrashBatch)
	for i := range entries {
		entries[i] = ReplicaEntry{
			Origin: uint32(i % 7),
			Key:    NewID(fmt.Sprintf("xfer-crash-%d-%d", n, i)),
			Value:  []byte(fmt.Sprintf("payload-%d-%d", n, i)),
		}
	}
	return entries
}

// TestImportBatchCrashChild is the re-exec child: it opens the durable
// pool named by the environment and applies ImportBatch batches forever,
// announcing each acked batch on stdout, until the parent SIGKILLs it.
// Without the environment variable it is skipped (the normal test run).
func TestImportBatchCrashChild(t *testing.T) {
	dir := os.Getenv(importCrashDirEnv)
	if dir == "" {
		t.Skip("not a crash-test child")
	}
	ov := newDurableTestOverlay(t)
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	for n := 0; ; n++ {
		entries := importCrashEntries(n)
		if _, err := dp.ImportBatch(entries); err != nil {
			t.Fatalf("batch %d: %v", n, err)
		}
		// An acked batch is durable by contract (FsyncBatch): announce it
		// only after ImportBatch returned. Direct write, no buffering — a
		// kill must not be able to eat an announcement that was sent.
		fmt.Printf("ACKED %d\n", n)
	}
}

// TestImportBatchCrashNoTornBatch SIGKILLs a process mid-import-stream
// and proves no torn batch was acked: for every batch the child
// announced before dying, ALL of its entries are recovered as the exact
// direct placements they were. A batch in flight at the kill may land
// fully, partially, or not at all — it was never acked, so no contract
// covers it — but an acked one may not be missing a single entry.
func TestImportBatchCrashNoTornBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestImportBatchCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), importCrashDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var acked []int
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "ACKED ") {
				continue // test-framework chatter
			}
			n, err := strconv.Atoi(strings.TrimPrefix(line, "ACKED "))
			if err != nil {
				continue
			}
			mu.Lock()
			acked = append(acked, n)
			mu.Unlock()
		}
	}()

	const killAfterBatches = 25
	deadline := time.Now().Add(60 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= killAfterBatches {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("only %d acked batches after 60s", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL mid-stream
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed on purpose
	<-scanDone

	ov := newDurableTestOverlay(t)
	dp, stats := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp.Close()

	mu.Lock()
	defer mu.Unlock()
	torn := 0
	for _, n := range acked {
		missing := 0
		for _, e := range importCrashEntries(n) {
			if v, ok := dp.Value(e.Key); !ok || string(v) != string(e.Value) {
				missing++
			}
		}
		if missing > 0 {
			torn++
			t.Errorf("acked batch %d recovered torn: %d of %d entries missing", n, missing, importCrashBatch)
		}
	}
	t.Logf("verified %d acked batches intact after SIGKILL (%d torn, replayed %d records)", len(acked), torn, stats.Replayed)
	if len(acked) < killAfterBatches {
		t.Fatalf("thin coverage: only %d acked batches verified", len(acked))
	}
}
