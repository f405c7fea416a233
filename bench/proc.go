package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/epicscale/sgl/internal/cluster"
	"github.com/epicscale/sgl/internal/server"
)

// node is one running sgld or sglgw the benchmark drives over loopback.
type node struct {
	name    string
	url     string
	startMS float64 // exec → "serving on" line; 0 in-process
	pid     int     // 0 in-process
	stop    func() (usage, error)
}

// usage is what a stopped child cost: the rusage the kernel kept for it.
type usage struct {
	cpuS      float64
	peakRSSMB float64
}

// launcher starts the programs under test. The process launcher is the
// benchmark proper; the in-process one backs -smoke and the tests, where
// building and forking two binaries would dominate a one-second window.
type launcher interface {
	sgld(name string) (*node, error)
	sglgw(nodes []*node) (*node, error)
}

// procLauncher runs the built binaries as child processes, each with its
// own data directory under work.
type procLauncher struct {
	binDir string
	work   string
}

func (l procLauncher) sgld(name string) (*node, error) {
	data := filepath.Join(l.work, name)
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	return startChild(name, filepath.Join(l.binDir, "sgld"), "sgld: serving on ",
		"-addr", "127.0.0.1:0", "-data", data)
}

func (l procLauncher) sglgw(nodes []*node) (*node, error) {
	var fleet []string
	for _, n := range nodes {
		fleet = append(fleet, n.name+"="+n.url)
	}
	return startChild("gw", filepath.Join(l.binDir, "sglgw"), "sglgw: serving on ",
		"-addr", "127.0.0.1:0", "-probe", "500ms", "-nodes", strings.Join(fleet, ","))
}

// startChild execs bin and waits for its "serving on http://host:port"
// line, which carries the kernel-assigned port (the children listen on
// :0 so concurrent runs never collide). Everything after that line is
// drained so a chatty child cannot block on a full pipe.
func startChild(name, bin, readyPrefix string, args ...string) (*node, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	type ready struct {
		url string
		err error
	}
	readyc := make(chan ready, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stdout)
		found := false
		for sc.Scan() {
			if line := sc.Text(); !found && strings.HasPrefix(line, readyPrefix) {
				found = true
				readyc <- ready{url: strings.Fields(strings.TrimPrefix(line, readyPrefix))[0]}
			}
		}
		if !found {
			readyc <- ready{err: fmt.Errorf("%s exited before serving: %s", name, strings.TrimSpace(stderr.String()))}
		}
	}()
	kill := func() {
		_ = cmd.Process.Kill()
		<-drained
		_ = cmd.Wait()
	}
	var r ready
	select {
	case r = <-readyc:
	case <-time.After(20 * time.Second):
		kill()
		return nil, fmt.Errorf("%s did not report a listen address within 20s", name)
	}
	if r.err != nil {
		<-drained
		_ = cmd.Wait()
		return nil, r.err
	}
	n := &node{
		name:    name,
		url:     strings.TrimSuffix(r.url, ","), // sglgw's line continues ", fronting …"
		startMS: float64(time.Since(t0).Microseconds()) / 1e3,
		pid:     cmd.Process.Pid,
	}
	n.stop = func() (usage, error) {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			<-drained
			_ = cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			return usage{}, fmt.Errorf("%s ignored SIGTERM; killed", name)
		}
		var u usage
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			u.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
			u.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
		if !cmd.ProcessState.Success() {
			return u, fmt.Errorf("%s exited uncleanly: %v: %s", name, cmd.ProcessState, strings.TrimSpace(stderr.String()))
		}
		return u, nil
	}
	return n, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// cpuSeconds reads a live child's user+system CPU time from
// /proc/<pid>/stat, so CPU per tick can be charged to the window alone
// (rusage at exit would also count set-up and verification). ok is false
// off Linux or in-process; callers then report 0.
func cpuSeconds(pid int) (float64, bool) {
	if pid == 0 {
		return 0, false
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, false
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, i.e. 11 and 12 after ")".
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, false
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, false
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	const clkTck = 100 // USER_HZ: fixed at 100 on every Linux ABI Go supports
	return (ut + st) / clkTck, true
}

// inprocLauncher serves the same handlers from httptest servers inside
// the benchmark process.
type inprocLauncher struct{}

func (inprocLauncher) sgld(name string) (*node, error) {
	reg := server.NewRegistry()
	ts := httptest.NewServer(server.New(reg, ""))
	return &node{name: name, url: ts.URL, stop: func() (usage, error) {
		ts.CloseClientConnections() // SSE streams would otherwise hold Close open
		ts.Close()
		reg.Close()
		return usage{}, nil
	}}, nil
}

func (inprocLauncher) sglgw(nodes []*node) (*node, error) {
	var fleet []cluster.Node
	for _, n := range nodes {
		fleet = append(fleet, cluster.Node{Name: n.name, URL: n.url})
	}
	gw, err := cluster.New(cluster.Config{Nodes: fleet, ProbeEvery: 500 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	gw.Start()
	ts := httptest.NewServer(gw)
	return &node{name: "gw", url: ts.URL, stop: func() (usage, error) {
		ts.CloseClientConnections()
		ts.Close()
		gw.Close()
		return usage{}, nil
	}}, nil
}
