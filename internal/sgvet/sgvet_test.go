package sgvet

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/loader"
)

// shared is the one loader of this test binary (the module is found by
// walking up from the working directory): the Loader memoizes by import
// path and every fixture lives in its own temp dir, so the module's
// packages and the stdlib behind them are type-checked once, not once
// per fixture.
var shared *loader.Loader

// loadFixture writes src as a single-file package under an optional
// subdir (some analyzers scope by import-path suffix) and loads it with
// imports resolving against the real module.
func loadFixture(t *testing.T, subdir, src string) *loader.Package {
	t.Helper()
	dir := t.TempDir()
	if subdir != "" {
		dir = filepath.Join(dir, filepath.FromSlash(subdir))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if shared == nil {
		l, err := loader.NewLoader(loader.Config{})
		if err != nil {
			t.Fatal(err)
		}
		shared = l
	}
	pkg, err := shared.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture has type errors: %v", pkg.TypeErrors)
	}
	return pkg
}

// checkFixture runs the analyzers over the fixture and matches the
// diagnostics against `// want:name[,name]` markers: each marked line
// must produce exactly the listed analyzers' diagnostics, and no
// unmarked line may produce any.
func checkFixture(t *testing.T, src, subdir string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	pkg := loadFixture(t, subdir, src)
	diags, _ := Run([]*loader.Package{pkg}, analyzers)

	want := map[int][]string{}
	for i, line := range strings.Split(src, "\n") {
		idx := strings.Index(line, "// want:")
		if idx < 0 {
			continue
		}
		names := strings.Fields(line[idx+len("// want:"):])
		if len(names) == 0 {
			t.Fatalf("line %d: empty want marker", i+1)
		}
		want[i+1] = append(want[i+1], strings.Split(names[0], ",")...)
	}
	got := map[int][]string{}
	for _, d := range diags {
		got[d.Line] = append(got[d.Line], d.Analyzer)
	}
	key := func(m map[int][]string, line int) string {
		names := append([]string(nil), m[line]...)
		sort.Strings(names)
		return strings.Join(names, ",")
	}
	lines := map[int]bool{}
	for l := range want {
		lines[l] = true
	}
	for l := range got {
		lines[l] = true
	}
	for l := range lines {
		if w, g := key(want, l), key(got, l); w != g {
			t.Errorf("line %d: want diagnostics [%s], got [%s]\nall diagnostics:\n%s", l, w, g, renderDiags(diags))
		}
	}
	return diags
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

const udfHeader = `package fixture

import (
	"repro/internal/core"
	"repro/internal/graph"
)

var frontier interface{ Get(int) bool }
var _ = graph.VertexID(0)
var _ core.Mode
`

func TestDepBreakFixture(t *testing.T) {
	src := udfHeader + `
func bad(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		ctx.Edge()
		if frontier.Get(int(u)) {
			break // want:depbreak
		}
	}
}

func helperBad(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	if firstActive(srcs) >= 0 { // want:depbreak
		ctx.Emit(uint32(dst))
	}
}

func firstActive(srcs []graph.VertexID) int {
	for i, u := range srcs {
		if frontier.Get(int(u)) {
			return i
		}
	}
	return -1
}

func good(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		ctx.Edge()
		if frontier.Get(int(u)) {
			ctx.EmitDep()
			break
		}
	}
}

var hot [][]graph.VertexID

func labeledBad(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
outer:
	for _, u := range srcs {
		ctx.Edge()
		for _, h := range hot[0] {
			if h == u {
				ctx.Emit(uint32(u))
				break outer // want:depbreak
			}
		}
	}
}

func returnBad(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		ctx.Edge()
		if frontier.Get(int(u)) {
			return // want:depbreak
		}
	}
}

func localPick(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		ctx.Edge()
		if frontier.Get(int(u)) {
			break //sgc:local machine-local candidate pick, full scan already done
		}
	}
}

// Paper Listing 2: one exit fixed by hand, the next one forgotten.
func partialBad(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		ctx.Edge()
		if frontier.Get(int(u)) {
			ctx.EmitDep()
			break
		}
		if u == dst {
			break // want:depbreak
		}
	}
}

var spare *core.DenseCtx[uint32]

// An EmitDep on some other context value announces nothing for this call.
func otherCtxBad(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		ctx.Edge()
		if frontier.Get(int(u)) {
			spare.EmitDep()
			break // want:depbreak
		}
	}
}
`
	// The advice names a tool only where the tool helps: `sgc instrument`
	// patches breaks, in a partly hand-instrumented function too; returns
	// and helper exits are fixed by hand.
	for _, d := range checkFixture(t, src, "", DepBreak) {
		byTool := strings.Contains(d.Message, "run `sgc instrument`")
		byHand := strings.Contains(d.Message, "add `ctx.EmitDep()` before the exit")
		isBreak := !strings.Contains(d.Message, "signal UDF helperBad:") && !strings.Contains(d.Message, "signal UDF returnBad:")
		if byTool != isBreak || byHand == isBreak {
			t.Errorf("wrong advice: %s", d)
		}
	}

	// A DenseParams literal's Breaks and Lanes must say what its Signal
	// does, a func literal or a named function alike: each mismatch, in
	// both directions, and a non-constant declaration, beside a correctly
	// declared pass of each form.
	checkFixture(t, udfHeader+`
var lanesVar = 1

func breaker(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		if frontier.Get(int(u)) {
			ctx.EmitDep()
			break
		}
	}
}

func viaCovered(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	if i := firstHit(ctx, srcs); i >= 0 {
		ctx.Emit(uint32(srcs[i]))
	}
}

func firstHit(ctx *core.DenseCtx[uint32], srcs []graph.VertexID) int {
	for i, u := range srcs {
		if frontier.Get(int(u)) {
			ctx.EmitDep()
			return i
		}
	}
	return -1
}

var passes = []core.DenseParams[uint32]{
	{Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) { // want:depbreak
		for _, u := range srcs {
			if frontier.Get(int(u)) {
				ctx.EmitDep()
				break
			}
		}
	}},
	{Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
		for _, u := range srcs {
			if frontier.Get(int(u)) {
				ctx.EmitDep()
				break
			}
		}
	}, Breaks: true},
	{Signal: breaker},    // want:depbreak
	{Signal: viaCovered}, // want:depbreak
	{Signal: breaker, Breaks: true},
	{Signal: viaCovered, Breaks: true},
	{
		Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
			ctx.Emit(uint32(len(srcs)))
		},
		Breaks: true, // want:depbreak
	},
	{Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
		ctx.Emit(uint32(len(srcs)))
	}},
	{
		Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
			ctx.SetDepFloat(1, ctx.DepFloat(1)+float64(len(srcs)))
		},
		Lanes: 1, // want:depbreak
	},
	{Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) { // want:depbreak
		ctx.SetDepFloat(0, ctx.DepFloat(0)+float64(len(srcs)))
	}},
	{
		Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
			ctx.Emit(uint32(len(srcs)))
		},
		Lanes: 1, // want:depbreak
	},
	{
		Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
			ctx.SetDepFloat(1, ctx.DepFloat(0)+float64(len(srcs)))
		},
		Lanes: 2,
	},
	{
		Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
			ctx.SetDepFloat(0, ctx.DepFloat(0)+float64(len(srcs)))
		},
		Lanes: lanesVar, // want:depbreak
	},
}
`, "", DepBreak)
}

func TestSnapDetFixture(t *testing.T) {
	src := `package fixture

import (
	"fmt"
	"io"
	"sort"
)

type StatsCodec struct{}

func (c *StatsCodec) EncodeStats(w io.Writer, m map[string]int64) {
	for k, v := range m { // want:snapdet
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

func Snapshot(m map[string]int) []string {
	var keys []string
	for k := range m { // want:snapdet
		keys = append(keys, k)
	}
	return keys
}

func SnapshotSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Names is not a serialization context, but it returns the slice it
// builds from map order — callers observe randomness.
func Names(m map[string]bool) []string {
	var out []string
	for k := range m { // want:snapdet
		out = append(out, k)
	}
	return out
}

// EncodeTotal accumulates floats in a deterministic context: float
// addition is not associative, so the sum depends on iteration order.
func EncodeTotal(m map[string]float64) float64 {
	var t float64
	for _, v := range m { // want:snapdet
		t += v
	}
	return t
}

// sumCounts folds integers — order-insensitive, fine anywhere.
func sumCounts(m map[string]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}

// cloneInto writes map→map — order-insensitive.
func cloneInto(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// prune deletes during iteration — the staged-checkpoint idiom, fine.
func (c *StatsCodec) prune(m map[string]int) {
	for k := range m {
		if m[k] == 0 {
			delete(m, k)
		}
	}
}
`
	checkFixture(t, src, "", SnapDet)
}

func TestCommErrFixture(t *testing.T) {
	src := `package fixture

import (
	"errors"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

var ep comm.Endpoint
var w *core.Worker
var errSentinel = errors.New("sentinel")

func classifyByIdentity(err error) bool {
	to := &comm.TimeoutError{}
	return err == to // want:commerr
}

func compareSentinels(err error) bool {
	return err == errSentinel // want:commerr
}

func classifyRight(err error) bool {
	var to *comm.TimeoutError
	return errors.As(err, &to) || errors.Is(err, errSentinel)
}

func nilCheck(err error) bool {
	return err != nil
}

func discardBare() {
	comm.Barrier(ep, 1) // want:commerr
}

func discardBlank() int64 {
	v, _ := comm.AllReduceInt64(ep, 1, 2, nil) // want:commerr
	return v
}

func handled() error {
	return comm.Barrier(ep, 1)
}

func deferred() {
	defer comm.Barrier(ep, 1)
}

func genericBare(a []uint32) {
	core.AllGather[uint32](w, a) // want:commerr
}

func genericBlank(a []uint32) {
	_ = core.Gather[uint32](w, a) // want:commerr
}

func recheckedOnEveryPath(cc *comm.CtrlConn) error {
	cc.SetDeadline(time.Now())
	return cc.Send("ping", nil)
}

func recheckedOnOneBranch(cc *comm.CtrlConn, ok bool) error {
	cc.SetDeadline(time.Now()) // want:commerr
	if ok {
		return cc.Expect("pong", nil)
	}
	return nil
}

func recheckedOnOtherReceiver(cc, other *comm.CtrlConn) error {
	cc.SetDeadline(time.Now()) // want:commerr
	return other.Send("ping", nil)
}

func recheckedNextIteration(cc *comm.CtrlConn, n int) error {
	for i := 0; i < n; i++ {
		if err := cc.Send("ping", nil); err != nil {
			return err
		}
		cc.SetDeadline(time.Time{}) // want:commerr
	}
	return nil
}

func neverReturns(cc *comm.CtrlConn) {
	for {
		cc.SetDeadline(time.Now()) // want:commerr
		if err := cc.Send("ping", nil); err != nil {
			continue
		}
	}
}

type link struct{ cc *comm.CtrlConn }

func fieldReceiver(l link) error {
	l.cc.SetDeadline(time.Now())
	var pong struct{}
	if err := l.cc.Expect("pong", &pong); err != nil {
		return err
	}
	return nil
}
`
	checkFixture(t, src, "", CommErr)
}

func TestCtxBlockFixture(t *testing.T) {
	src := `package fixture

import (
	"context"
	"time"
)

type daemon struct {
	queue chan int
	done  chan struct{}
}

func (d *daemon) leaseBad() int {
	return <-d.queue // want:ctxblock
}

func (d *daemon) leaseGood(ctx context.Context) int {
	select {
	case v := <-d.queue:
		return v
	case <-ctx.Done():
		return -1
	}
}

func (d *daemon) sendBad(v int) {
	d.queue <- v // want:ctxblock
}

func (d *daemon) sendGood(v int) bool {
	select {
	case d.queue <- v:
		return true
	default:
		return false
	}
}

func (d *daemon) twoPeers(other chan int) int {
	select { // want:ctxblock
	case v := <-d.queue:
		return v
	case v := <-other:
		return v
	}
}

func (d *daemon) waitShutdown() {
	<-d.done
}

func (d *daemon) deadlineWait(other chan int) int {
	select {
	case v := <-other:
		return v
	case <-time.After(time.Second):
		return -1
	}
}

func (d *daemon) drain() {
	for range d.queue {
	}
}

func (d *daemon) goroutineSend(v int) {
	go func() {
		d.queue <- v // want:ctxblock
	}()
}

func (d *daemon) nestedInArmBody(ctx context.Context, other chan int) int {
	select {
	case v := <-d.queue:
		return v + <-other // want:ctxblock
	case <-ctx.Done():
		return -1
	}
}

func (d *daemon) selectInRangeBody(ctx context.Context, in chan int) {
	for v := range in {
		select {
		case d.queue <- v:
		case <-ctx.Done():
			return
		}
	}
}

func (d *daemon) parkForever() {
	select {} // want:ctxblock
}

func (d *daemon) provedNonBlocking() int {
	//sgvet:ignore ctxblock capacity token returned to a buffered channel that always has room
	return <-d.queue
}
`
	checkFixture(t, src, "internal/server", CtxBlock)
}

// TestCtxBlockScopedToServer: the same blocking ops outside an
// internal/server package produce nothing.
func TestCtxBlockScopedToServer(t *testing.T) {
	src := `package fixture

func recv(ch chan int) int {
	return <-ch
}
`
	checkFixture(t, src, "", CtxBlock)
}

func TestIgnoreDirectiveSameLineAndAbove(t *testing.T) {
	src := `package fixture

type daemon struct{ queue chan int }

func (d *daemon) sameLine() int {
	return <-d.queue //sgvet:ignore ctxblock buffered by construction
}

func (d *daemon) lineAbove() int {
	//sgvet:ignore ctxblock buffered by construction
	return <-d.queue
}

func (d *daemon) wrongName() int {
	//sgvet:ignore snapdet wrong analyzer name does not suppress
	return <-d.queue // want:ctxblock
}

func (d *daemon) trailingStaysOnItsLine() int {
	a := <-d.queue //sgvet:ignore ctxblock buffered by construction
	b := <-d.queue // want:ctxblock
	return a + b
}
`
	checkFixture(t, src, "internal/server", CtxBlock)
}

func TestBufOwnFixture(t *testing.T) {
	src := `package fixture

import "repro/internal/comm"

var ep comm.Endpoint

func useAfterRelease() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	b := m.Payload[0]
	m.Release()
	return b + m.Payload[0] // want:bufown
}

func aliasAfterRelease() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	p := m.Payload
	m.Release()
	return p[0] // want:bufown
}

func bufAfterSendBufs(buf []byte) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers{buf})
	buf[0] = 0 // want:bufown
	return len(buf), err // want:bufown
}

func convAfterSendBufs(bufs [][]byte) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers(bufs))
	return len(bufs), err // want:bufown
}

func okUseBeforeRelease() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	b := m.Payload[0]
	m.Release()
	return b
}

func okSiblingBranch(send bool, bufs comm.Buffers) (int, error) {
	if send {
		return 0, ep.SendBufs(1, comm.KindUpdate, 1, bufs)
	} else {
		return len(bufs), nil
	}
}

func okReassign() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	m.Release()
	m, _ = ep.Recv(0, comm.KindUpdate, 2)
	return m.Payload[0]
}

func okIndexedHandoff(chunks [][][]byte) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers(chunks[0]))
	return len(chunks), err
}

type binCtx struct {
	bins  [][]byte
	frame []byte
}

func fieldAfterSendBufs(ctx *binCtx) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers(ctx.bins))
	ctx.bins[0][0] = 0 // want:bufown
	return len(ctx.bins), err // want:bufown
}

func fieldLiteralAfterSendBufs(ctx *binCtx) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers{ctx.frame})
	return len(ctx.frame), err // want:bufown
}

func okOtherReceiverField(ctx, other *binCtx) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers(ctx.bins))
	return len(other.bins), err
}

func okFieldRebind(ctx *binCtx) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers(ctx.bins))
	ctx.bins = make([][]byte, 4)
	return len(ctx.bins), err
}

func okFieldTruncate(ctx *binCtx) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers(ctx.bins))
	ctx.bins = ctx.bins[:0]
	return len(ctx.bins), err
}

func fieldResliceAfterSendBufs(ctx *binCtx) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers(ctx.bins))
	ctx.bins = ctx.bins[:1] // want:bufown
	return len(ctx.bins), err
}

func okReceiverRebind(ctx, fresh *binCtx) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers{ctx.frame})
	ctx = fresh
	return len(ctx.frame), err
}

func okOtherField(ctx *binCtx) (int, error) {
	err := ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers(ctx.bins))
	return len(ctx.frame), err
}
`
	checkFixture(t, src, "", BufOwn)
}

func TestFleetStateFixture(t *testing.T) {
	src := `package fixture

import (
	"fmt"

	"repro/internal/server"
)

func compareViaString(s server.WorkerState) bool {
	return s.String() == "dead" // want:fleetstate
}

func compareViaStringFlipped(s server.WorkerState) bool {
	return "healthy" != s.String() // want:fleetstate
}

func switchOnString(s server.WorkerState) int {
	switch s.String() { // want:fleetstate
	case "healthy":
		return 0
	default:
		return 1
	}
}

func rawStateField(w server.FleetWorker, state string) bool {
	return state == "rejoining" // want:fleetstate
}

func rawStatusVar(healthStatus string) bool {
	return "suspect" == healthStatus // want:fleetstate
}

func okTypedCompare(s server.WorkerState) bool {
	return s == server.StateDead || s != server.StateHealthy
}

func okTypedSwitch(s server.WorkerState) int {
	switch s {
	case server.StateHealthy:
		return 0
	default:
		return 1
	}
}

func okRenderForLogs(s server.WorkerState) string {
	return fmt.Sprintf("worker is %s", s.String())
}

func okUnrelatedLiteral(graphName string) bool {
	// "dead" as data, not as a health state: no state-ish identifier.
	return graphName == "dead"
}

func okLiteralVsLiteral() bool {
	return "dead" == "healthy"
}

func okIgnored(state string) bool {
	//sgvet:ignore fleetstate parsing the wire form, enum not available here
	return state == "dead"
}
`
	checkFixture(t, src, "", FleetState)
}
