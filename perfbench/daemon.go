package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one tomod process under test, listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startDaemon launches tomod with its default configuration on an
// ephemeral loopback port and returns once it is listening.
func startDaemon(ctx context.Context) (*daemon, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(filepath.Dir(exe), "tomod"), "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Keep draining stdout until the daemon exits, so it never blocks
		// on a full pipe.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "tomod: listening on "); ok {
				addr <- a
			}
		}
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("tomod exited before listening")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
}

// stop sends SIGTERM (tomod drains and exits 0) and waits for the process;
// a daemon that has not exited after the drain budget is killed.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(40 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// procSample is the daemon's cumulative CPU time and peak RSS, read from
// /proc (Linux): utime+stime in clock ticks of 1/100 s, VmHWM in KiB.
type procSample struct {
	cpu    time.Duration
	hwmKiB int64
}

func sampleProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	s.cpu = time.Duration(ut+st) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			s.hwmKiB, _ = strconv.ParseInt(strings.Fields(v)[0], 10, 64)
		}
	}
	return s, nil
}

// client is one HTTP/1.1 connection to the daemon: requests on it are
// serialized, which is what makes each load stream single-connection.
type client struct {
	hc   *http.Client
	base string
}

// newClient counts every connection it opens in dials.
func newClient(base string, dials *atomic.Int32) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		},
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) register(name string, doc []byte, window int) error {
	body, err := json.Marshal(struct {
		Name     string          `json:"name"`
		Topology json.RawMessage `json:"topology"`
		Window   int             `json:"window"`
	}{name, doc, window})
	if err != nil {
		return err
	}
	status, resp, err := c.do(http.MethodPost, "/v1/tenants", "application/json", body)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("register %s: %d %s", name, status, resp)
	}
	return nil
}

// ingest POSTs one encoded batch and returns the status (202 accepted,
// 429 refused by backpressure).
func (c *client) ingest(tenant string, b batch) (int, error) {
	status, resp, err := c.do(http.MethodPost, "/v1/ingest?tenant="+tenant, b.ctype, b.body)
	if err == nil && status != http.StatusAccepted && status != http.StatusTooManyRequests {
		err = fmt.Errorf("ingest %s: %d %s", tenant, status, resp)
	}
	return status, err
}

// ingestRetry delivers one batch, retrying 429s after pause. It returns
// the number of refused attempts.
func (c *client) ingestRetry(tenant string, b batch, pause time.Duration) (int, error) {
	for refused := 0; ; refused++ {
		status, err := c.ingest(tenant, b)
		if err != nil || status == http.StatusAccepted {
			return refused, err
		}
		time.Sleep(pause)
	}
}

// estimateReply is the part of the /v1/estimate document the checks read.
type estimateReply struct {
	SnapshotsSeen  int       `json:"snapshots_seen"`
	CongestionProb []float64 `json:"congestion_prob"`
}

func (c *client) estimate(tenant string) (estimateReply, error) {
	var r estimateReply
	status, body, err := c.do(http.MethodGet, "/v1/estimate?tenant="+tenant, "", nil)
	if err != nil {
		return r, err
	}
	if status != http.StatusOK {
		return r, fmt.Errorf("estimate %s: %d %s", tenant, status, body)
	}
	err = json.Unmarshal(body, &r)
	return r, err
}

// metric reads one unlabelled counter from /metrics.
func (c *client) metric(name string) (int64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("metrics: %d", status)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("metrics: no %s", name)
}

// waitApplied polls /metrics until the daemon has applied want snapshots
// to tenant windows, so a throughput clock never stops on a backlog.
func (c *client) waitApplied(want int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, err := c.metric("tomod_ingest_snapshots_total")
		if err != nil {
			return err
		}
		if got >= want {
			if got > want {
				return fmt.Errorf("daemon applied %d snapshots, %d were accepted", got, want)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("daemon did not drain its ingest queues")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// batch is one pre-encoded ingest body and the packed rows it carries.
type batch struct {
	ctype string
	body  []byte
	rows  int
}

const (
	ctypeJSON   = "application/json"
	ctypeBinary = "application/x-tomo-probes"
)

// encodeJSON renders packed rows in the daemon's JSON probe-report format:
// {"reports": [[congested path indices], …]}.
func encodeJSON(words []uint64, wpr, rows int) batch {
	var buf bytes.Buffer
	buf.WriteString(`{"reports":[`)
	for t := 0; t < rows; t++ {
		if t > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('[')
		first := true
		for w, word := range words[t*wpr : (t+1)*wpr] {
			for word != 0 {
				if !first {
					buf.WriteByte(',')
				}
				first = false
				buf.WriteString(strconv.Itoa(w*64 + bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		buf.WriteByte(']')
	}
	buf.WriteString(`]}`)
	return batch{ctype: ctypeJSON, body: buf.Bytes(), rows: rows}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeBinary renders packed rows as a dense TOMOW1 batch: a 20-byte
// header (magic, version 1, flags 0, path count, snapshot count, CRC-32C of
// the payload) and the rows' little-endian words.
func encodeBinary(words []uint64, wpr, rows, numPaths int) batch {
	out := make([]byte, 20+rows*wpr*8)
	copy(out, "TOMOW1")
	out[6] = 1
	binary.LittleEndian.PutUint32(out[8:], uint32(numPaths))
	binary.LittleEndian.PutUint32(out[12:], uint32(rows))
	for k, w := range words[:rows*wpr] {
		binary.LittleEndian.PutUint64(out[20+8*k:], w)
	}
	binary.LittleEndian.PutUint32(out[16:], crc32.Checksum(out[20:], castagnoli))
	return batch{ctype: ctypeBinary, body: out, rows: rows}
}
