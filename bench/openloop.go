package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Open-loop load generation. Spectators and players are independent
// users: they do not wait for each other's replies, so each connection
// sends on an absolute schedule (request i is due at start + i/rate)
// regardless of how the server is doing. A connection is still one
// HTTP/1.1 connection, so a stalled reply delays the requests queued
// behind it — and because every latency is timed from the request's DUE
// time, not from when it finally left, that delay is charged to the
// queued requests instead of silently thinning the load (no coordinated
// omission). How late the generator itself ran is reported separately.

// request is one generated HTTP request, relative to a base URL.
type request struct {
	Method string
	Path   string
	Body   []byte
}

// schedule is a deterministic request stream: request i is due i/Rate
// seconds after the start and Gen(i) is its content. Gen must be a pure
// function of i (and the seed it closed over), so one seed always yields
// the same stream.
type schedule struct {
	Rate float64
	Gen  func(i int) request
}

// due is request i's offset from the schedule start.
func (s schedule) due(i int) time.Duration {
	return time.Duration(float64(i) / s.Rate * float64(time.Second))
}

// bytes renders the first n entries canonically (due offset, method,
// path, body) — what the determinism test compares.
func (s schedule) bytes(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		r := s.Gen(i)
		fmt.Fprintf(&b, "%d %s %s %s\n", s.due(i).Nanoseconds(), r.Method, r.Path, r.Body)
	}
	return b.Bytes()
}

// sample is the outcome of one scheduled request. All times are offsets
// from the schedule start.
type sample struct {
	Due  time.Duration // when it should have been sent
	Sent time.Duration // when it was sent (≥ Due; the excess is generator lateness)
	Done time.Duration // when its reply had been read
	OK   bool          // 2xx reply fully read
}

// latency is the user-visible delay: reply read, counted from the due time.
func (sm sample) latency() time.Duration { return sm.Done - sm.Due }

// late is how far behind its schedule the generator sent the request.
func (sm sample) late() time.Duration { return sm.Sent - sm.Due }

// newConnClient returns a client pinned to one keep-alive connection per
// host: "one connection" in a workload description means exactly one
// socket, so requests on it are serialized the way one user's are.
func newConnClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// runOpenLoop sends s against base on client until stop closes, and
// returns one sample per request sent, in schedule order. A request whose
// due time has passed is sent immediately (the backlog drains as fast as
// the connection allows); one that is early waits for its due time. The
// caller owns start so several generators can share one time origin.
func runOpenLoop(client *http.Client, base string, s schedule, start time.Time, stop <-chan struct{}) []sample {
	var out []sample
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := s.due(i)
		if wait := time.Until(start.Add(due)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return out
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		r := s.Gen(i)
		sent := time.Since(start)
		ok := do(client, base, r, nil) == nil
		out = append(out, sample{Due: due, Sent: sent, Done: time.Since(start), OK: ok})
	}
}

// do performs one request and reads its reply fully (so the connection is
// reusable). A non-2xx status is an error carrying the body. When into is
// non-nil the reply body is copied there.
func do(client *http.Client, base string, r request, into *bytes.Buffer) error {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, base+r.Path, body)
	if err != nil {
		return err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reusable
		return fmt.Errorf("%s %s: %s: %s", r.Method, r.Path, resp.Status, bytes.TrimSpace(msg))
	}
	if into == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		_, err = into.ReadFrom(resp.Body)
	}
	return err
}
