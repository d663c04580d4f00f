package cluster

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Playground launches a local multi-process cluster: N sr3node
// processes on loopback, the first one the seed, each with its own log
// file. It is the substrate of the process-level e2e harness and the CI
// cluster-smoke job, and doubles as a dev tool ("run a real cluster on
// my laptop" — the same wiring docker-compose.yml expresses with
// containers).
type Playground struct {
	cfg PlaygroundConfig

	mu    sync.Mutex
	procs map[string]*NodeProc
	names []string
}

// PlaygroundConfig configures a playground cluster.
type PlaygroundConfig struct {
	// Bin is the sr3node binary path (built by the test harness or CI).
	Bin string
	// Nodes is the process count; names are node1..nodeN and node1 is
	// the seed.
	Nodes int
	// TopoFile is the topology spec the seed loads. Its components
	// should pin nodes to names node1..nodeN.
	TopoFile string
	// Dir holds per-node log files (a temp dir when empty).
	Dir string
	// Heartbeat / DeadAfter / Repair override the daemon timing knobs
	// (zero keeps each daemon's default).
	Heartbeat time.Duration
	DeadAfter time.Duration
	Repair    time.Duration
}

// NodeProc is one playground-managed sr3node process.
type NodeProc struct {
	Name string
	// Addr and HTTP are the cluster and metrics/debug addresses the process
	// reported once it was up; empty before its first start.
	Addr    string
	HTTP    string
	LogPath string

	pg     *Playground
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd has exited and been reaped
	log    *os.File
}

// readyTimeout bounds how long a launched process may take to report that
// it is up.
const readyTimeout = 15 * time.Second

// NewPlayground validates the config. No port is chosen here: each node
// binds free loopback ports itself at its first start and reports them,
// and a restart rebinds the same ones, so identities (name, addr, http)
// are stable across restarts of individual processes.
func NewPlayground(cfg PlaygroundConfig) (*Playground, error) {
	if cfg.Bin == "" {
		return nil, fmt.Errorf("playground: no sr3node binary")
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("playground: need at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.TopoFile == "" {
		return nil, fmt.Errorf("playground: no topology file")
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "sr3-playground-")
		if err != nil {
			return nil, err
		}
		cfg.Dir = dir
	}
	pg := &Playground{cfg: cfg, procs: map[string]*NodeProc{}}
	for i := 1; i <= cfg.Nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		pg.procs[name] = &NodeProc{
			Name:    name,
			LogPath: filepath.Join(cfg.Dir, name+".log"),
			pg:      pg,
		}
		pg.names = append(pg.names, name)
	}
	return pg, nil
}

// Seed returns the seed process.
func (pg *Playground) Seed() *NodeProc { return pg.Proc(pg.names[0]) }

// Proc returns a node by name (nil when unknown).
func (pg *Playground) Proc(name string) *NodeProc {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return pg.procs[name]
}

// Names lists the node names in launch order.
func (pg *Playground) Names() []string { return append([]string(nil), pg.names...) }

// Start launches every node (seed first) and waits until all members
// are alive in the seed's view and every node's HTTP surface answers.
func (pg *Playground) Start(timeout time.Duration) error {
	for _, name := range pg.names {
		if err := pg.launch(name); err != nil {
			pg.StopAll()
			return err
		}
	}
	if err := pg.WaitMembers(pg.cfg.Nodes, timeout); err != nil {
		pg.StopAll()
		return err
	}
	if err := pg.WaitHealthy(timeout); err != nil {
		pg.StopAll()
		return err
	}
	return nil
}

// WaitHealthy polls every node's /healthz until all report ready (the
// readiness docker-compose healthchecks probe: joined + every assigned
// component running).
func (pg *Playground) WaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, name := range pg.names {
		for {
			if _, err := pg.HTTPGet(name, "/healthz"); err == nil {
				break
			} else if time.Now().After(deadline) {
				return fmt.Errorf("playground: %s never became healthy: %v", name, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

// HTTPGet fetches an arbitrary path from one node's HTTP surface.
func (pg *Playground) HTTPGet(name, path string) ([]byte, error) {
	p := pg.Proc(name)
	if p == nil {
		return nil, fmt.Errorf("playground: unknown node %s", name)
	}
	return httpGet("http://" + p.HTTP + path)
}

// launch starts a node and waits for it to report its addresses: the
// seed's are what every other node is launched with. A node's first start
// binds free loopback ports, a restart the ones it reported then.
func (pg *Playground) launch(name string) error {
	pg.mu.Lock()
	p := pg.procs[name]
	pg.mu.Unlock()
	if p == nil {
		return fmt.Errorf("playground: unknown node %s", name)
	}
	logf, err := os.OpenFile(p.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	from, err := logf.Seek(0, io.SeekEnd) // this run's output starts here
	if err != nil {
		_ = logf.Close()
		return err
	}
	args := []string{
		"-name", p.Name,
		"-listen", cmp.Or(p.Addr, "127.0.0.1:0"),
		"-http", cmp.Or(p.HTTP, "127.0.0.1:0"),
	}
	if p.Name == pg.names[0] {
		args = append(args, "-topo", pg.cfg.TopoFile)
	} else {
		args = append(args, "-seed", pg.Seed().Addr)
	}
	if pg.cfg.Heartbeat > 0 {
		args = append(args, "-heartbeat", pg.cfg.Heartbeat.String())
	}
	if pg.cfg.DeadAfter > 0 {
		args = append(args, "-dead-after", pg.cfg.DeadAfter.String())
	}
	if pg.cfg.Repair > 0 {
		args = append(args, "-repair", pg.cfg.Repair.String())
	}
	cmd := exec.Command(pg.cfg.Bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return fmt.Errorf("playground: start %s: %w", name, err)
	}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(exited)
	}()
	p.cmd, p.exited, p.log = cmd, exited, logf
	addr, httpAddr, err := waitReport(p.LogPath, from, exited)
	switch {
	case err != nil:
		return fmt.Errorf("playground: %s: %w\n%s", name, err, pg.TailLog(name, 2048))
	case p.Addr == "":
		p.Addr, p.HTTP = addr, httpAddr
	case addr != p.Addr || httpAddr != p.HTTP:
		return fmt.Errorf("playground: %s restarted on %s/%s, not its %s/%s", name, addr, httpAddr, p.Addr, p.HTTP)
	}
	return nil
}

// waitReport reads a node's log from offset from until the daemon's
// "up: cluster=<addr> http=<addr>" line, and returns the two addresses.
func waitReport(path string, from int64, exited <-chan struct{}) (addr, httpAddr string, err error) {
	deadline := time.After(readyTimeout)
	for {
		gone := false
		select {
		case <-exited:
			gone = true
		case <-deadline:
			return "", "", fmt.Errorf("not up within %v", readyTimeout)
		case <-time.After(10 * time.Millisecond):
		}
		switch addr, httpAddr, ok := readReport(path, from); {
		case ok && httpAddr == "":
			return "", "", fmt.Errorf("up without an HTTP surface")
		case ok:
			return addr, httpAddr, nil
		case gone:
			return "", "", fmt.Errorf("exited before it was up")
		}
	}
}

// readReport looks for the "up:" line in the log past offset from.
func readReport(path string, from int64) (addr, httpAddr string, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil || int64(len(data)) < from {
		return "", "", false
	}
	for _, line := range strings.Split(string(data[from:]), "\n") {
		_, up, found := strings.Cut(line, " up: ")
		if !found || !strings.HasPrefix(up, "cluster=") {
			continue
		}
		for _, field := range strings.Fields(up) {
			if v, isAddr := strings.CutPrefix(field, "cluster="); isAddr {
				addr = v
			} else if v, isHTTP := strings.CutPrefix(field, "http="); isHTTP {
				httpAddr = v
			}
		}
		return addr, httpAddr, addr != ""
	}
	return "", "", false
}

// Restart relaunches a (killed or stopped) node under the same
// identity and addresses — the crash-and-rejoin scenario.
func (pg *Playground) Restart(name string) error {
	p := pg.Proc(name)
	if p == nil {
		return fmt.Errorf("playground: unknown node %s", name)
	}
	p.reap()
	return pg.launch(name)
}

// Kill delivers SIGKILL — the kill -9 crash the recovery e2e exercises.
func (pg *Playground) Kill(name string) error {
	return pg.signal(name, syscall.SIGKILL)
}

// Terminate delivers SIGTERM for a graceful daemon shutdown.
func (pg *Playground) Terminate(name string) error {
	return pg.signal(name, syscall.SIGTERM)
}

func (pg *Playground) signal(name string, sig syscall.Signal) error {
	p := pg.Proc(name)
	if p == nil || p.cmd == nil || p.cmd.Process == nil {
		return fmt.Errorf("playground: %s is not running", name)
	}
	return p.cmd.Process.Signal(sig)
}

// WaitExit blocks until a signalled node's process exits.
func (pg *Playground) WaitExit(name string, timeout time.Duration) error {
	p := pg.Proc(name)
	if p == nil || p.cmd == nil {
		return fmt.Errorf("playground: %s is not running", name)
	}
	select {
	case <-p.exited:
		p.closeLog()
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("playground: %s did not exit within %v", name, timeout)
	}
}

// reap kills and collects a child (idempotent; the child may have been
// SIGKILLed already).
func (p *NodeProc) reap() {
	if p.cmd != nil {
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.closeLog()
	p.cmd = nil
}

func (p *NodeProc) closeLog() {
	if p.log != nil {
		_ = p.log.Close()
		p.log = nil
	}
}

// StopAll terminates every process: SIGTERM first, SIGKILL whatever
// remains after a short grace window.
func (pg *Playground) StopAll() {
	pg.mu.Lock()
	procs := make([]*NodeProc, 0, len(pg.procs))
	for _, p := range pg.procs {
		procs = append(procs, p)
	}
	pg.mu.Unlock()
	for _, p := range procs {
		if p.cmd != nil && p.cmd.Process != nil {
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range procs {
		if p.cmd == nil {
			continue
		}
		select {
		case <-p.exited:
		case <-time.After(time.Until(deadline)):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
		p.closeLog()
		p.cmd = nil
	}
}

// Debug fetches a node's /debug/sr3 snapshot.
func (pg *Playground) Debug(name string) (NodeDebug, error) {
	var d NodeDebug
	p := pg.Proc(name)
	if p == nil {
		return d, fmt.Errorf("playground: unknown node %s", name)
	}
	body, err := httpGet("http://" + p.HTTP + "/debug/sr3")
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(body, &d); err != nil {
		return d, fmt.Errorf("playground: debug %s: %w", name, err)
	}
	return d, nil
}

// Metrics fetches a node's Prometheus text exposition.
func (pg *Playground) Metrics(name string) (string, error) {
	p := pg.Proc(name)
	if p == nil {
		return "", fmt.Errorf("playground: unknown node %s", name)
	}
	body, err := httpGet("http://" + p.HTTP + "/metrics")
	return string(body), err
}

// WaitMembers polls the seed's view until want members are alive.
func (pg *Playground) WaitMembers(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		d, err := pg.Debug(pg.names[0])
		if err == nil {
			alive := 0
			for _, m := range d.Members {
				if m.Alive {
					alive++
				}
			}
			if alive >= want {
				return nil
			}
			last = fmt.Errorf("%d/%d members alive", alive, want)
		} else {
			last = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("playground: members not ready: %v", last)
}

// TailLog returns the last n bytes of a node's log (diagnostics on
// test failure).
func (pg *Playground) TailLog(name string, n int64) string {
	p := pg.Proc(name)
	if p == nil {
		return ""
	}
	data, err := os.ReadFile(p.LogPath)
	if err != nil {
		return ""
	}
	if int64(len(data)) > n {
		data = data[int64(len(data))-n:]
	}
	return string(data)
}

func httpGet(url string) ([]byte, error) {
	client := &http.Client{Timeout: 3 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
