package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"sr3/benchmark/kinds"
)

// Daemon timing flags of every run: the e2etest values.
const (
	heartbeat = 100 * time.Millisecond
	deadAfter = time.Second
	repair    = 500 * time.Millisecond
)

var nodeNames = []string{"node1", "node2", "node3"}

// proc is one benchnode child.
type proc struct {
	addr  string // cluster listener
	http  string // stock /metrics, /debug/sr3, /healthz
	bench string // digest listener
	cmd   *exec.Cmd
	log   *os.File
	// exited closes when the child has been waited for; planned is set
	// before the harness kills it itself.
	exited  chan struct{}
	planned atomic.Bool
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) gone() bool {
	select {
	case <-p.exited:
		return true
	default:
		return false
	}
}

// nodeSet is one launched 3-process loopback cluster. Every child is
// killed and waited for by stop, which main also runs on SIGINT/SIGTERM
// and on panic; should the harness itself be SIGKILLed, Pdeathsig takes
// the children with it.
type nodeSet struct {
	dir   string
	procs map[string]*proc
	began time.Time // first process launched
}

// live is the cluster now running, for the signal handler and the wall
// cap: runs, and the set-ups inside a run, follow one another.
var live atomic.Pointer[nodeSet]

func stopLiveCluster() {
	if c := live.Load(); c != nil {
		c.stop(false)
	}
}

// reservePorts finds n free loopback ports. All n listeners are held
// open until the last is bound, or the kernel may hand one port out twice.
func reservePorts(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// launch starts node1 (seed, loads topo), node2 and node3. Logs go to
// dir/<tag>-<name>.log and the pids to dir/<tag>-pids.json.
func launch(bin, dir, tag, topo string) (*nodeSet, error) {
	c := &nodeSet{dir: dir, procs: map[string]*proc{}}
	ports, err := reservePorts(3 * len(nodeNames))
	if err != nil {
		return nil, err
	}
	for i, name := range nodeNames {
		c.procs[name] = &proc{exited: make(chan struct{}),
			addr: ports[3*i], http: ports[3*i+1], bench: ports[3*i+2]}
	}
	live.Store(c)
	c.began = time.Now()
	pids := map[string]int{}
	for _, name := range nodeNames {
		p := c.procs[name]
		args := []string{"-bench-listen", p.bench, "-name", name, "-listen", p.addr, "-http", p.http,
			"-heartbeat", heartbeat.String(), "-dead-after", deadAfter.String(), "-repair", repair.String()}
		if name == nodeNames[0] {
			args = append(args, "-topo", topo)
		} else {
			args = append(args, "-seed", c.procs[nodeNames[0]].addr)
		}
		logf, err := os.Create(filepath.Join(dir, tag+"-"+name+".log"))
		if err != nil {
			c.stop(false)
			return nil, err
		}
		p.log = logf
		p.cmd = exec.Command(bin, args...)
		p.cmd.Stdout, p.cmd.Stderr = logf, logf
		p.cmd.Env = childEnv()
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := p.cmd.Start(); err != nil {
			p.cmd = nil
			c.stop(false)
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		pids[name] = p.pid()
		go func(p *proc) {
			_ = p.cmd.Wait()
			_ = p.log.Close()
			close(p.exited)
		}(p)
	}
	raw, _ := json.Marshal(pids)
	if err := os.WriteFile(filepath.Join(dir, tag+"-pids.json"), raw, 0o644); err != nil {
		c.stop(false)
		return nil, err
	}
	return c, nil
}

// childEnv is the harness's environment without any SR3_* variable: the
// daemons run on stock defaults plus the flags launch passes.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if len(kv) >= 4 && kv[:4] == "SR3_" {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// kill SIGKILLs one node — the planned fault — and waits for it.
func (c *nodeSet) kill(name string) time.Time {
	p := c.procs[name]
	p.planned.Store(true)
	at := time.Now()
	_ = p.cmd.Process.Kill()
	<-p.exited
	return at
}

// unplannedExit names a child that died without the harness asking.
func (c *nodeSet) unplannedExit() string {
	for _, name := range nodeNames {
		if p := c.procs[name]; p.cmd != nil && !p.planned.Load() && p.gone() {
			return name
		}
	}
	return ""
}

// stop ends every child and waits until each has been reaped: SIGTERM
// with a grace period when graceful, SIGKILL otherwise and for stragglers.
func (c *nodeSet) stop(graceful bool) {
	live.CompareAndSwap(c, nil)
	for _, p := range c.procs {
		if p.cmd == nil || p.gone() {
			continue
		}
		p.planned.Store(true)
		if graceful {
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
		} else {
			_ = p.cmd.Process.Kill()
		}
	}
	grace := time.After(3 * time.Second)
	for _, p := range c.procs {
		if p.cmd == nil {
			continue
		}
		select {
		case <-p.exited:
		case <-grace:
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	}
}

// logTail returns the last n bytes of every node's log, for the report
// of a failed run.
func (c *nodeSet) logTail(tag string, n int64) string {
	out := ""
	for _, name := range nodeNames {
		data, err := os.ReadFile(filepath.Join(c.dir, tag+"-"+name+".log"))
		if err != nil {
			continue
		}
		if int64(len(data)) > n {
			data = data[int64(len(data))-n:]
		}
		out += "--- " + name + " ---\n" + string(data)
	}
	return out
}

// poller is the harness's one keep-alive connection per polled listener;
// requests are issued one at a time from the run loop.
var poller = &http.Client{
	Timeout:   2 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
}

func httpGet(url string) ([]byte, error) {
	resp, err := poller.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// digest fetches one node's bench digest at the given level.
func (c *nodeSet) digest(name string, level int) (kinds.Digest, error) {
	var d kinds.Digest
	body, err := httpGet(fmt.Sprintf("http://%s/digest?level=%d", c.procs[name].bench, level))
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(body, &d)
}
