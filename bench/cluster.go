package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"discovery/internal/cluster"
	"discovery/internal/server"
)

// nodeCluster is the canonical deployment every serving workload drives:
// real cmd/discoverynode processes on loopback, each with its own data
// directory, reached through one cluster.Client.
type nodeCluster struct {
	bin     string
	dir     string // parent of the per-node data dirs and logs
	flags   []string
	peer    []string // sorted, so index == region rank
	client  []string
	metrics []string

	mu    sync.Mutex
	procs []*exec.Cmd

	cc *cluster.Client
}

// liveClusters lets the signal handler and the exit path reap every node
// process this run started, whichever goroutine started it.
var (
	liveMu       sync.Mutex
	liveClusters = map[*nodeCluster]struct{}{}
)

func reapAll() {
	liveMu.Lock()
	cs := make([]*nodeCluster, 0, len(liveClusters))
	for c := range liveClusters {
		cs = append(cs, c)
	}
	liveMu.Unlock()
	for _, c := range cs {
		c.destroy()
	}
}

// reserveAddrs returns n distinct free loopback addresses, released
// before the nodes bind them. The ports are drawn from below the
// kernel's ephemeral range: a restarted node must get its old ports
// back, and a port the kernel may hand to any outgoing connection in the
// meantime (the survivors redial, the bench scrapes) would now and then
// be taken. Where the range cannot be read, ":0" has to do.
func reserveAddrs(n int) ([]string, error) {
	lo := 0
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		fmt.Sscan(string(b), &lo) //nolint:errcheck // lo stays 0: fall back to ":0"
	}
	const floor = 10000
	addrs := make([]string, 0, n)
	liss := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range liss {
			l.Close()
		}
	}()
	for tries := 0; len(addrs) < n; tries++ {
		addr := "127.0.0.1:0"
		if lo > floor+1000 && tries < 50*n {
			addr = fmt.Sprintf("127.0.0.1:%d", floor+rand.Intn(lo-floor))
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			if addr == "127.0.0.1:0" {
				return nil, err
			}
			continue // taken; draw again
		}
		liss = append(liss, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startCluster launches n nodes with the canonical flags plus extra and
// returns once a cluster client sees every member's client address.
func startCluster(bin, workDir string, n int, extra []string) (*nodeCluster, error) {
	dir, err := os.MkdirTemp(workDir, "cluster-")
	if err != nil {
		return nil, err
	}
	addrs, err := reserveAddrs(3 * n)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	c := &nodeCluster{bin: bin, dir: dir, flags: extra, peer: addrs[:n], client: addrs[n : 2*n], metrics: addrs[2*n:], procs: make([]*exec.Cmd, n)}
	sort.Strings(c.peer)
	liveMu.Lock()
	liveClusters[c] = struct{}{}
	liveMu.Unlock()
	for i := 0; i < n; i++ {
		if err := c.startNode(i); err != nil {
			c.destroy()
			return nil, err
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if c.cc == nil {
			c.cc, _ = cluster.Dial(cluster.Config{Seeds: c.client, CallTimeout: 5 * time.Second})
		} else {
			c.cc.Refresh() //nolint:errcheck // retried until the deadline
		}
		if c.cc != nil && c.allMembersKnown() {
			return c, nil
		}
		if time.Now().After(deadline) {
			err := fmt.Errorf("cluster never became whole: %s", c.logTail(0))
			c.destroy()
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *nodeCluster) allMembersKnown() bool {
	_, members := c.cc.Members()
	if len(members) != len(c.peer) {
		return false
	}
	for _, m := range members {
		if m == "" {
			return false
		}
	}
	return true
}

func (c *nodeCluster) dataDir(i int) string { return filepath.Join(c.dir, fmt.Sprintf("n%d", i)) }
func (c *nodeCluster) logPath(i int) string { return filepath.Join(c.dir, fmt.Sprintf("n%d.log", i)) }

// startNode launches (or relaunches on its data dir) node i.
func (c *nodeCluster) startNode(i int) error {
	args := []string{
		"-listen", c.client[i],
		"-peer-listen", c.peer[i],
		"-bootstrap", strings.Join(c.peer, ","),
		"-metrics-listen", c.metrics[i],
		"-data-dir", c.dataDir(i),
	}
	args = append(args, c.flags...)
	logf, err := os.OpenFile(c.logPath(i), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(c.bin, args...)
	cmd.Stderr = logf
	// If this process dies without running its exit path, the kernel
	// still takes the nodes down.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	c.mu.Lock()
	c.procs[i] = cmd
	c.mu.Unlock()
	return nil
}

// kill SIGKILLs node i and waits until the process is gone.
func (c *nodeCluster) kill(i int) {
	c.mu.Lock()
	cmd := c.procs[i]
	c.procs[i] = nil
	c.mu.Unlock()
	if cmd == nil {
		return
	}
	cmd.Process.Kill() //nolint:errcheck // already exited is fine
	cmd.Wait()         //nolint:errcheck // killed: the exit status carries nothing
}

// destroy kills every node, closes the client and removes the data
// dirs. Safe to call more than once and from the signal handler.
func (c *nodeCluster) destroy() {
	liveMu.Lock()
	_, live := liveClusters[c]
	delete(liveClusters, c)
	liveMu.Unlock()
	if !live {
		return
	}
	for i := range c.procs {
		c.kill(i)
	}
	if c.cc != nil {
		c.cc.Close()
	}
	os.RemoveAll(c.dir)
}

func (c *nodeCluster) pid(i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.procs[i] == nil {
		return 0
	}
	return c.procs[i].Process.Pid
}

// logTail returns the last lines of node i's stderr, for error messages.
func (c *nodeCluster) logTail(i int) string {
	b, err := os.ReadFile(c.logPath(i))
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, " | ")
}

// dialNode opens a plain (cluster-unaware) connection to node i: with
// R == N every node replicates every key, so a direct request is a
// local read of that node's own store.
func (c *nodeCluster) dialNode(i int, within time.Duration) (*server.Client, error) {
	deadline := time.Now().Add(within)
	for {
		sc, err := server.Dial(c.client[i])
		if err == nil {
			return sc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node %d never accepted clients: %v; log: %s", i, err, c.logTail(i))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrape reads node i's /metrics into a flat name{labels} -> value map.
func (c *nodeCluster) scrape(i int) (map[string]float64, error) {
	resp, err := http.Get("http://" + c.metrics[i] + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// scrapeSum scrapes every live node and sums each series whose name
// (labels stripped) is in names.
func (c *nodeCluster) scrapeSum(names ...string) (map[string]float64, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	sum := map[string]float64{}
	for i := range c.procs {
		if c.pid(i) == 0 {
			continue
		}
		m, err := c.scrape(i)
		if err != nil {
			return nil, fmt.Errorf("scrape node %d: %w", i, err)
		}
		for k, v := range m {
			base := k
			if b := strings.IndexByte(k, '{'); b >= 0 {
				base = k[:b]
			}
			if want[base] {
				sum[base] += v
			}
		}
	}
	return sum, nil
}

// clockTick is the kernel's USER_HZ; it has been 100 on every Linux
// architecture Go supports, and /proc reports CPU time in it.
const clockTick = 100

// procCPU returns the user+system CPU seconds a process has used.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// comm may contain spaces; the fixed fields start after its ')'.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat")
	}
	return (ut + st) / clockTick, nil
}

// nodesCPU sums procCPU over the live nodes.
func (c *nodeCluster) nodesCPU() float64 {
	total := 0.0
	for i := range c.procs {
		if pid := c.pid(i); pid != 0 {
			if s, err := procCPU(pid); err == nil {
				total += s
			}
		}
	}
	return total
}

// selfCPU is this process's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB sums VmHWM over the live nodes.
func (c *nodeCluster) rssPeakMB() float64 {
	total := 0.0
	for i := range c.procs {
		pid := c.pid(i)
		if pid == 0 {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					kb, _ := strconv.ParseFloat(f[1], 64)
					total += kb / 1024
				}
			}
		}
	}
	return total
}

// diskBytes is the size of everything under the nodes' data dirs.
func (c *nodeCluster) diskBytes() float64 {
	var total int64
	for i := range c.procs {
		filepath.WalkDir(c.dataDir(i), func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort
			if err == nil && !d.IsDir() {
				if info, ierr := d.Info(); ierr == nil {
					total += info.Size()
				}
			}
			return nil
		})
	}
	return float64(total)
}
