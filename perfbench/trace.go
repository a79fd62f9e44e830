package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"udbench/internal/wal"
	"udbench/internal/workload"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent links a span to the call that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a run in memory. A nil *tracer records
// nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	nextID  uint64
	phase   string
	phaseID uint64 // span id of the running set-up or recovery step
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id and start time.
func (t *tracer) begin() (uint64, int64) {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id, t.now()
}

// end closes a span and returns its end time.
func (t *tracer) end(id, parent, req uint64, layer string, start int64) int64 {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Phase: t.phase, Start: start, End: end})
	t.mu.Unlock()
	return end
}

// step times fn as a span of layer and makes it the parent of the log
// writes fn causes outside any request.
func (t *tracer) step(layer, phase string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id, start := t.begin()
	t.mu.Lock()
	t.phase, t.phaseID = phase, id
	t.mu.Unlock()
	err := fn()
	t.end(id, 0, 0, layer, start)
	t.mu.Lock()
	t.phaseID = 0
	t.mu.Unlock()
	return err
}

func (t *tracer) setPhase(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = phase
	t.mu.Unlock()
}

// call times one request-level call of layer. The span's id is also
// the request id fn receives (0 when untraced), so calls it causes on
// the far side of the wire can name their parent.
func (t *tracer) call(layer string, fn func(req uint64) error) error {
	if t == nil {
		return fn(0)
	}
	id, start := t.begin()
	err := fn(id)
	t.end(id, 0, id, layer, start)
	return err
}

// callerOfIO picks the parent of a log write: the set-up or recovery
// step running now, else none. The log writes and syncs from its
// background flusher, apart from any request, so log spans belong to
// no request and carry no request id.
func (t *tracer) callerOfIO() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phaseID
}

// selfTimes returns, per layer, the summed self time of the spans
// recorded in phase: each span's duration minus the part of it that
// its child spans cover.
func (t *tracer) selfTimes(phase string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Phase != phase {
			continue
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFS wraps the filesystem handed to durable.Open so every log
// write and sync is a span, and keeps their durations.
type tracedFS struct {
	wal.FS
	tr *tracer

	mu     sync.Mutex
	writes durs
	syncs  durs
}

func (f *tracedFS) OpenAppend(name string) (wal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

type tracedFile struct {
	wal.File
	fs *tracedFS
}

// mark returns how many writes and syncs the wrapper has seen, so a
// phase can take the ones after it; zero for a nil wrapper.
func (f *tracedFS) mark() [2]int {
	if f == nil {
		return [2]int{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return [2]int{len(f.writes), len(f.syncs)}
}

func (tf *tracedFile) io(layer string, sample *durs, fn func() error) error {
	tr := tf.fs.tr
	parent := tr.callerOfIO()
	id, start := tr.begin()
	err := fn()
	end := tr.end(id, parent, 0, layer, start)
	tf.fs.mu.Lock()
	*sample = append(*sample, time.Duration(end-start))
	tf.fs.mu.Unlock()
	return err
}

func (tf *tracedFile) Write(p []byte) (int, error) {
	var n int
	err := tf.io("wal.write", &tf.fs.writes, func() error {
		var err error
		n, err = tf.File.Write(p)
		return err
	})
	return n, err
}

func (tf *tracedFile) Sync() error {
	return tf.io("wal.sync", &tf.fs.syncs, tf.File.Sync)
}

// execTimer sits in server.Config.Engine in front of the backend the
// server fronts, so the time a request spends inside the backend can be
// told apart from the wire and the admission queue. The request id
// travels in Params.ProductID2, which the timeseries ops do not read.
type execTimer struct {
	workload.Backend
	tr *tracer

	mu    sync.Mutex
	execs durs
}

func (e *execTimer) RunSuiteOp(suite, op string, p workload.Params) (int, error) {
	var req uint64
	fmt.Sscanf(p.ProductID2, "req-%d", &req)
	id, start := e.tr.begin()
	n, err := e.Backend.RunSuiteOp(suite, op, p)
	end := e.tr.end(id, req, req, "server.exec", start)
	e.mu.Lock()
	e.execs = append(e.execs, time.Duration(end-start))
	e.mu.Unlock()
	return n, err
}
