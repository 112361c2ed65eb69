package main

// The load generator: one keep-alive HTTP connection per client goroutine,
// pre-rendered request bodies, closed- and open-loop drivers, and the
// response normalisation every check hashes.

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// opTimeout is the longest an operation may take before it counts as failed.
const opTimeout = 5 * time.Second

// conn is one client connection: its own Transport capped at one connection,
// so "2 clients" means exactly two sockets.
type conn struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: opTimeout}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{hc: &http.Client{Transport: tr, Timeout: opTimeout}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status, headers and body. The body
// aliases the connection's buffer and is valid until the next call.
func (c *conn) do(method, url string, body []byte, minVersion uint64) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if minVersion > 0 {
		req.Header.Set("X-Min-Catalog-Version", strconv.FormatUint(minVersion, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), nil
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// sample is one correct timed operation: when it started (or was due),
// relative to the window start, and how long it took.
type sample struct{ at, dur time.Duration }

// tally is what one driver goroutine accumulates.
type tally struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	late      []time.Duration // open loop only: send time − due time
}

func (t *tally) record(at, dur time.Duration, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.samples = append(t.samples, sample{at, dur})
}

// merge folds other into t.
func (t *tally) merge(other *tally) {
	t.samples = append(t.samples, other.samples...)
	t.attempted += other.attempted
	t.failed += other.failed
	if t.firstErr == nil {
		t.firstErr = other.firstErr
	}
	t.late = append(t.late, other.late...)
}

// op performs operation number i on c and reports whether it was correct.
type op func(c *conn, i int) error

// closedLoop issues op back to back (the next only after the previous one
// completed) until ctx ends, numbering operations first, first+stride, ...
func closedLoop(ctx context.Context, start time.Time, c *conn, first, stride int, f op) *tally {
	t := &tally{samples: make([]sample, 0, 1<<16)}
	for i := first; ctx.Err() == nil; i += stride {
		t0 := time.Now()
		err := f(c, i)
		t.record(t0.Sub(start), time.Since(t0), err)
	}
	return t
}

// openLoop issues op on a fixed schedule of rate per second regardless of
// how long earlier operations took. Latency is measured from the due time,
// so a stall is charged to every operation it delays; late records how far
// behind schedule each send was.
func openLoop(ctx context.Context, start time.Time, c *conn, rate, first int, f op) *tally {
	t := &tally{}
	interval := time.Second / time.Duration(rate)
	for i := first; ; i++ {
		due := start.Add(time.Duration(i-first) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return t
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			return t
		}
		t.late = append(t.late, time.Since(due))
		err := f(c, i)
		t.record(due.Sub(start), time.Since(due), err)
	}
}

// Response normalisation: the fields that legitimately differ between two
// executions of the same request are cut out before hashing.
var (
	timingKeys   = [][]byte{[]byte(`"cacheHit":`), []byte(`"plan":`), []byte(`"prepareMicros":`), []byte(`"execMicros":`)}
	versionKey   = []byte(`"catalogVersion":`)
	selectionKey = []byte(`"selection":`)
	cacheHitYes  = []byte(`"cacheHit":true`)
	cacheHitNo   = []byte(`"cacheHit":false`)
	whatIfYes    = []byte(`"whatIf":true`)
)

// normalize returns a copy of body without the timing fields, the plan
// rendering, the cacheHit flag and the auto-selector's statistics. The last
// are cut because a maintained plan keeps the statistics of the state it was
// first compiled on (only a flip of the chosen engine refreshes them), so
// they legitimately differ between a follower's maintained plan and a
// restarted leader's fresh one.
func normalize(body []byte) []byte {
	out := append([]byte(nil), body...)
	for _, key := range timingKeys {
		out = cutField(out, key)
	}
	return cutField(out, selectionKey)
}

// cutField removes the first `"key":value,` from b in place. Keys are matched
// with their quotes and colon, which cannot occur unescaped inside a JSON
// string, so only a real top-level field matches.
func cutField(b, key []byte) []byte {
	i := bytes.Index(b, key)
	if i < 0 {
		return b
	}
	return append(b[:i], b[i+fieldLen(b[i:], key):]...)
}

// fieldLen is the length of the `"key":value,` that b starts with; the value
// is a string, a scalar, or an object without nested objects.
func fieldLen(b, key []byte) int {
	j := len(key)
	switch {
	case j < len(b) && b[j] == '"':
		j = skipString(b, j)
	case j < len(b) && b[j] == '{':
		for j++; j < len(b) && b[j] != '}'; j++ {
			if b[j] == '"' {
				j = skipString(b, j) - 1
			}
		}
		j++
	default:
		for j < len(b) && b[j] != ',' && b[j] != '}' {
			j++
		}
	}
	if j < len(b) && b[j] == ',' {
		j++
	}
	return j
}

// skipString returns the index just past the JSON string starting at b[i].
func skipString(b []byte, i int) int {
	for i++; i < len(b) && b[i] != '"'; i++ {
		if b[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// hashSeed keys bodyHash; hashes are only ever compared within one process.
var hashSeed = maphash.MakeSeed()

// bodyHash hashes a query response without its timing fields, in one pass and without copying: responses carry the whole answer table and run
// to hundreds of kilobytes, so the check must not cost what the request did.
// The keys occur in this order in every response.
func bodyHash(body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	pos := 0
	for _, key := range timingKeys {
		i := bytes.Index(body[pos:], key)
		if i < 0 {
			continue
		}
		h.Write(body[pos : pos+i])
		pos += i + fieldLen(body[pos+i:], key)
	}
	h.Write(body[pos:])
	return h.Sum64()
}

// percentile returns the q-quantile (0..1) of sorted durations by nearest
// rank; 0 for an empty slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(q*float64(len(sorted))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func sortedDurs(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowSlices is how many equal slices the measured window is cut into.
// Every end-to-end figure of a run is the median over the slices, so that a
// stall or a noisy neighbour moves one slice and not the run.
const windowSlices = 5

// A p99 needs ten samples beyond it, so it is taken over groups of at least
// p99GroupSamples: as many equal parts of the window, up to windowSlices, as
// the sample count affords.
const p99GroupSamples = 1000

// windowSummary is the timed op over the window, slice by slice.
type windowSummary struct {
	n         int           // correct timed ops
	perSlice  []int         // of which started in each slice
	opsPerSec float64       // median over slices
	p50       time.Duration // median of the slice p50s
	p99       time.Duration // median of the group p99s
	p99Groups int
}

// bySlice groups the samples' latencies by the k-th part of the window they
// started in.
func bySlice(samples []sample, window time.Duration, k int) [][]time.Duration {
	out := make([][]time.Duration, k)
	for _, s := range samples {
		i := min(max(int(int64(s.at)*int64(k)/int64(window)), 0), k-1)
		out[i] = append(out[i], s.dur)
	}
	return out
}

func summarize(samples []sample, window time.Duration) windowSummary {
	sum := windowSummary{n: len(samples), p99Groups: min(max(len(samples)/p99GroupSamples, 1), windowSlices)}
	var rates, p50s, p99s []float64
	for _, sl := range bySlice(samples, window, windowSlices) {
		sum.perSlice = append(sum.perSlice, len(sl))
		rates = append(rates, float64(len(sl))/(window.Seconds()/windowSlices))
		if len(sl) > 0 {
			p50s = append(p50s, float64(percentile(sortedDurs(sl), 0.5)))
		}
	}
	for _, g := range bySlice(samples, window, sum.p99Groups) {
		if len(g) > 0 {
			p99s = append(p99s, float64(percentile(sortedDurs(g), 0.99)))
		}
	}
	sum.opsPerSec = medianFloat(rates)
	sum.p50, sum.p99 = time.Duration(medianFloat(p50s)), time.Duration(medianFloat(p99s))
	return sum
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// httpError formats an unexpected response for a failure message.
func httpError(what string, status int, body []byte) error {
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("%s: HTTP %d: %s", what, status, body)
}
