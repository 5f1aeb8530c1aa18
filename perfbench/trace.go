package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/faultfs"
	"github.com/dnswatch/dnsloc/internal/study"
)

// spanKind names a traced boundary: a call from the benchmark's hooks
// into one layer's public functions, or a phase of the run.
type spanKind uint8

const (
	kindProbe      spanKind = iota // one probe: its ClientWrapper call to the next one in the lane
	kindExchange                   // core.Client Exchange/ExchangeRTT (netsim, dnsserver, cpe, dnswire)
	kindFold                       // analysis.Accumulator.Fold
	kindSinkAppend                 // study.RecordSink.Append
	kindSinkFlush                  // sink Flush and Close
	kindCheckpoint                 // one checkpoint store: MarshalState to the directory fsync
	kindMarshal                    // Accumulator.MarshalState inside a checkpoint
	kindCkptIO                     // checkpoint open, write, close, rename, remove, mkdir
	kindCkptFsync                  // checkpoint file and directory fsync
	kindSetup                      // engine call to the slowest shard's first probe
	kindRender                     // tables, figures, accuracy and snapshot rendered
	kindCheck                      // digest and output check
	kindRun                        // the whole repetition
	kindSweep                      // setup end to the completed fold
	kindShard                      // one shard: first probe to its Progress call
	numKinds
)

var kindNames = [numKinds]string{
	"probe", "exchange", "fold", "sink_append", "sink_flush", "checkpoint",
	"checkpoint_marshal", "checkpoint_io", "checkpoint_fsync",
	"setup", "render", "check", "run", "sweep", "shard",
}

// selfKinds are the kinds whose self time the traced run reports; the
// containers (run, sweep, shard) only wait on their children.
var selfKinds = []spanKind{
	kindSetup, kindProbe, kindExchange, kindFold, kindSinkAppend, kindSinkFlush,
	kindCheckpoint, kindMarshal, kindCkptIO, kindCkptFsync, kindRender, kindCheck,
}

// sampleEvery keeps the spans of every 16th probe ID for the span file;
// every span still counts toward the totals, percentiles and self time.
const sampleEvery = 16

// maxWireSamples caps the responses one lane keeps for the dnswire
// replay.
const maxWireSamples = 2048

// Fixed span IDs of the main timeline; shard k's span is spanShard0+k
// and lane k numbers its spans from (k+1)<<40.
const (
	spanRun = iota + 1
	spanSetup
	spanSweep
	spanRender
	spanCheck
	spanShard0
)

type span struct {
	id, parent uint64
	kind       spanKind
	probe      int // -1 when the span belongs to no probe
	start, end int64
}

type frame struct {
	id           uint64
	kind         spanKind
	probe        int
	start, child int64
}

// lane is one event loop's trace state. Only the goroutine running the
// lane touches it, so it needs no lock; the engine's completion edges
// (WaitGroup, channel close) order it before finish reads it.
type lane struct {
	tr     *tracer
	next   uint64 // last span ID issued
	root   uint64 // parent of a span opened with nothing else open
	stack  []frame
	spans  []span
	self   [numKinds]int64
	total  [numKinds]int64
	count  [numKinds]int64
	durs   [numKinds][]int64 // durations of the kinds reported as percentiles
	probe  int               // the open probe's ID
	sample bool              // the open probe's spans go to the span file

	exchanges, exchangeFails int64
	ckptBytes                int64
	responses                []*dnswire.Message
}

func (l *lane) open(kind spanKind, probe int, t int64) {
	l.next++
	l.stack = append(l.stack, frame{id: l.next, kind: kind, probe: probe, start: t})
}

func (l *lane) close(t int64) {
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	d := t - f.start
	l.self[f.kind] += d - f.child
	l.total[f.kind] += d
	l.count[f.kind]++
	switch f.kind {
	case kindProbe, kindExchange, kindFold, kindSinkAppend:
		l.durs[f.kind] = append(l.durs[f.kind], d)
	}
	parent := l.root
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += d
		parent = l.stack[n-1].id
	}
	if f.probe < 0 || f.probe%sampleEvery == 0 {
		l.spans = append(l.spans, span{id: f.id, parent: parent, kind: f.kind, probe: f.probe, start: f.start, end: t})
	}
}

// closeAll ends every open span at t: a new probe starting, or the
// shard finishing, ends the previous probe and anything left under it.
func (l *lane) closeAll(t int64) {
	for len(l.stack) > 0 {
		l.close(t)
	}
}

// timed records a leaf span [t0, now] of kind under whatever is open.
func (l *lane) timed(kind spanKind, probe int, t0 int64) {
	l.open(kind, probe, t0)
	l.close(l.tr.since())
}

// tracer is the traced run's in-memory span store: one lane per shard
// plus the main goroutine's lane (the in-memory fold).
type tracer struct {
	since     func() int64
	lanes     []*lane // shards 0..K-1, then the main goroutine
	shardEnd  []int64 // each shard's Progress call
	spansPath string  // where finish writes the kept spans; "" skips

	mu     sync.Mutex
	byGoID map[int64]*lane // goroutine → lane, for checkpoint I/O
}

func newTracer(workers int, since func() int64, spansPath string) *tracer {
	tr := &tracer{since: since, spansPath: spansPath, byGoID: map[int64]*lane{}, shardEnd: make([]int64, workers)}
	for k := 0; k <= workers; k++ {
		l := &lane{tr: tr, next: uint64(k+1) << 40, root: spanShard0 + uint64(k)}
		tr.lanes = append(tr.lanes, l)
	}
	main := tr.lanes[workers]
	main.root = spanSweep
	tr.byGoID[goid()] = main
	return tr
}

// wrap starts probe id's span on shard k's lane and returns the traced
// client. The returned client implements core.RTTExchanger exactly
// when c does, so the detector takes the same path as untraced.
func (tr *tracer) wrap(c core.Client, id, k int, now int64) core.Client {
	l := tr.lanes[k]
	l.closeAll(now)
	l.open(kindProbe, id, now)
	l.probe, l.sample = id, id%sampleEvery == 0
	tc := tracedClient{inner: c, lane: l}
	if rc, ok := c.(core.RTTExchanger); ok {
		return &tracedRTTClient{tracedClient: tc, rtt: rc}
	}
	return &tc
}

// shardDone ends shard k's last probe span at its Progress call.
func (tr *tracer) shardDone(k int, now int64) {
	tr.lanes[k].closeAll(now)
	tr.shardEnd[k] = now
}

type tracedClient struct {
	inner core.Client
	lane  *lane
}

func (c *tracedClient) Exchange(server netip.AddrPort, q *dnswire.Message) ([]*dnswire.Message, error) {
	t0 := c.lane.tr.since()
	resps, err := c.inner.Exchange(server, q)
	c.lane.exchanged(t0, resps, err)
	return resps, err
}

type tracedRTTClient struct {
	tracedClient
	rtt core.RTTExchanger
}

func (c *tracedRTTClient) ExchangeRTT(server netip.AddrPort, q *dnswire.Message) ([]*dnswire.Message, time.Duration, error) {
	t0 := c.lane.tr.since()
	resps, rtt, err := c.rtt.ExchangeRTT(server, q)
	c.lane.exchanged(t0, resps, err)
	return resps, rtt, err
}

func (l *lane) exchanged(t0 int64, resps []*dnswire.Message, err error) {
	l.timed(kindExchange, l.probe, t0)
	l.exchanges++
	if err != nil {
		l.exchangeFails++
	}
	// Responses are freshly unpacked per exchange, so keeping the
	// pointers for the replay is safe and costs nothing here.
	if l.sample && len(l.responses) < maxWireSamples {
		l.responses = append(l.responses, resps...)
	}
}

// foldMain folds one record on the main goroutine (in-memory engine).
func (tr *tracer) foldMain(acc *analysis.Accumulator, rec *study.ProbeRecord) {
	l := tr.lanes[len(tr.lanes)-1]
	t0 := tr.since()
	acc.Fold(rec)
	l.timed(kindFold, rec.Probe.ID, t0)
}

// tracedAcc times Fold and MarshalState on a shard's lane; Merge
// unwraps its sibling so analysis.Accumulator sees its own type.
type tracedAcc struct {
	*analysis.Accumulator
	lane *lane // nil for the merge target
}

func (tr *tracer) newAccumulator(shard int) study.Accumulator {
	a := &tracedAcc{Accumulator: analysis.NewAccumulator()}
	if shard >= 0 {
		// RunStreamed calls this from the shard's own goroutine, before
		// any of the shard's checkpoint I/O.
		a.lane = tr.lanes[shard]
		tr.mu.Lock()
		tr.byGoID[goid()] = a.lane
		tr.mu.Unlock()
	}
	return a
}

func (a *tracedAcc) Fold(rec *study.ProbeRecord) {
	t0 := a.lane.tr.since()
	a.Accumulator.Fold(rec)
	a.lane.timed(kindFold, rec.Probe.ID, t0)
}

func (a *tracedAcc) Merge(other study.Accumulator) error {
	return a.Accumulator.Merge(unwrapAccumulator(other))
}

// MarshalState is only called by a checkpoint store, so it opens the
// checkpoint span; the store's directory fsync closes it.
func (a *tracedAcc) MarshalState() ([]byte, error) {
	l := a.lane
	t0 := l.tr.since()
	l.open(kindCheckpoint, -1, t0)
	b, err := a.Accumulator.MarshalState()
	l.timed(kindMarshal, -1, t0)
	return b, err
}

// unwrapAccumulator returns the analysis accumulator under a traced one.
func unwrapAccumulator(a study.Accumulator) *analysis.Accumulator {
	if t, ok := a.(*tracedAcc); ok {
		return t.Accumulator
	}
	return a.(*analysis.Accumulator)
}

// tracedSink times a shard's sink. It implements study.SinkFlusher,
// as the JSONL sink it wraps does, so the engine flushes it before
// every checkpoint just the same.
type tracedSink struct {
	inner study.RecordSink
	lane  *lane
}

// wrapSinks wraps every sink open opens.
func (tr *tracer) wrapSinks(open func(k, workers, resumedAt int) (study.RecordSink, error)) func(k, workers, resumedAt int) (study.RecordSink, error) {
	return func(k, workers, resumedAt int) (study.RecordSink, error) {
		s, err := open(k, workers, resumedAt)
		if err != nil {
			return nil, err
		}
		return &tracedSink{inner: s, lane: tr.lanes[k]}, nil
	}
}

func (s *tracedSink) Append(e study.ProbeExport) error {
	t0 := s.lane.tr.since()
	err := s.inner.Append(e)
	s.lane.timed(kindSinkAppend, e.ProbeID, t0)
	return err
}

func (s *tracedSink) Flush() error {
	t0 := s.lane.tr.since()
	var err error
	if f, ok := s.inner.(study.SinkFlusher); ok {
		err = f.Flush()
	}
	s.lane.timed(kindSinkFlush, -1, t0)
	return err
}

func (s *tracedSink) Close() error {
	t0 := s.lane.tr.since()
	err := s.inner.Close()
	s.lane.timed(kindSinkFlush, -1, t0)
	return err
}

// tracedFS times checkpoint I/O. SyncDir names the shared directory,
// not a shard, so operations find their lane by calling goroutine.
type tracedFS struct {
	inner faultfs.FS
	tr    *tracer
}

func (tr *tracer) wrapFS(inner faultfs.FS) faultfs.FS { return &tracedFS{inner: inner, tr: tr} }

// lane is the calling goroutine's lane. Every goroutine that reaches
// the FS is registered first: the main one by newTracer, each shard's
// by newAccumulator, which RunStreamed calls before the shard's
// checkpoint I/O.
func (f *tracedFS) lane() *lane {
	f.tr.mu.Lock()
	defer f.tr.mu.Unlock()
	return f.tr.byGoID[goid()]
}

// io records one checkpoint operation that started at t0.
func (f *tracedFS) io(kind spanKind, t0 int64) {
	f.lane().timed(kind, -1, t0)
}

func (f *tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	t0 := f.tr.since()
	file, err := f.inner.OpenFile(name, flag, perm)
	f.io(kindCkptIO, t0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: file, fs: f}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	t0 := f.tr.since()
	err := f.inner.Rename(oldpath, newpath)
	f.io(kindCkptIO, t0)
	return err
}

func (f *tracedFS) Remove(name string) error {
	t0 := f.tr.since()
	err := f.inner.Remove(name)
	f.io(kindCkptIO, t0)
	return err
}

func (f *tracedFS) MkdirAll(dir string, perm fs.FileMode) error {
	t0 := f.tr.since()
	err := f.inner.MkdirAll(dir, perm)
	f.io(kindCkptIO, t0)
	return err
}

// SyncDir is a checkpoint store's last step: it also closes the
// checkpoint span MarshalState opened.
func (f *tracedFS) SyncDir(dir string) error {
	t0 := f.tr.since()
	err := f.inner.SyncDir(dir)
	l := f.lane()
	l.timed(kindCkptFsync, -1, t0)
	if n := len(l.stack); n > 0 && l.stack[n-1].kind == kindCheckpoint {
		l.close(f.tr.since())
	}
	return err
}

type tracedFile struct {
	inner faultfs.File
	fs    *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t0 := f.fs.tr.since()
	n, err := f.inner.Write(p)
	l := f.fs.lane()
	l.timed(kindCkptIO, -1, t0)
	l.ckptBytes += int64(n)
	return n, err
}

func (f *tracedFile) Sync() error {
	t0 := f.fs.tr.since()
	err := f.inner.Sync()
	f.fs.io(kindCkptFsync, t0)
	return err
}

func (f *tracedFile) Close() error {
	t0 := f.fs.tr.since()
	err := f.inner.Close()
	f.fs.io(kindCkptIO, t0)
	return err
}

// goid is the calling goroutine's ID, read from the header line
// runtime.Stack writes ("goroutine 18 [running]:").
func goid() int64 {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	s = strings.TrimPrefix(s, "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(s, 10, 64)
	return id
}

// mainSpans are the repetition's phases on the main timeline, plus one
// span per shard from its first probe to its Progress call.
func mainSpans(first, shardEnd []int64, setupEnd, sweepEnd, renderEnd, wallEnd int64) []span {
	out := []span{
		{id: spanRun, kind: kindRun, probe: -1, start: 0, end: wallEnd},
		{id: spanSetup, parent: spanRun, kind: kindSetup, probe: -1, start: 0, end: setupEnd},
		{id: spanSweep, parent: spanRun, kind: kindSweep, probe: -1, start: setupEnd, end: sweepEnd},
		{id: spanRender, parent: spanRun, kind: kindRender, probe: -1, start: sweepEnd, end: renderEnd},
		{id: spanCheck, parent: spanRun, kind: kindCheck, probe: -1, start: renderEnd, end: wallEnd},
	}
	for k := range shardEnd {
		out = append(out, span{id: spanShard0 + uint64(k), parent: spanSweep, kind: kindShard, probe: -1, start: first[k], end: shardEnd[k]})
	}
	return out
}

// writeSpans writes the kept spans as CSV, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,probe,start_ns,end_ns")
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", s.id, s.parent, kindNames[s.kind], s.probe, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
