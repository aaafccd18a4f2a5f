package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"glitchsim"
	"glitchsim/internal/jobs"
	"glitchsim/internal/service"
)

// benchServer is one server wired as cmd/glitchsimd wires it with its
// default flags, plus an admission ceiling (so EstimateCost runs on every
// measure request), durable uploads and a file-backed job store (so
// upload-jobs pays real fsyncs). It serves a real net/http.Server on a
// loopback port.
type benchServer struct {
	engine *glitchsim.Engine
	svc    *service.Server
	srv    *http.Server
	url    string
	served chan error
	log    *os.File
}

// maxEstimatedEvents is the admission ceiling: far above every workload's
// requests, so nothing is rejected, but non-zero so every measure request
// is estimated.
const maxEstimatedEvents = 200_000_000

// startServer builds and starts a server whose state (uploads, job
// records, access log) lives under dir. wrap, when non-nil, wraps the
// service handler (the traced pass installs its span recorder there).
func startServer(ctx context.Context, dir string, wrap func(http.Handler) http.Handler) (*benchServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	store, err := jobs.NewFileStore(filepath.Join(dir, "jobs"))
	if err != nil {
		logFile.Close()
		return nil, err
	}
	engine := glitchsim.NewEngine(
		glitchsim.WithWorkers(0),
		glitchsim.WithCacheSize(glitchsim.DefaultCacheSize),
		glitchsim.WithLanes(0),
	)
	svc := service.New(engine,
		service.WithUploadCapacity(service.DefaultUploadCapacity),
		service.WithJobOptions(jobs.Options{Store: store}),
		service.WithBaseContext(ctx),
		service.WithLogf(log.New(logFile, "", log.LstdFlags).Printf),
		service.WithDefaultBudget(glitchsim.Budget{}),
		service.WithLimits(service.Limits{MaxEstimatedEvents: maxEstimatedEvents}),
		service.WithUploadDir(filepath.Join(dir, "uploads")),
	)
	var handler http.Handler = svc
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logFile.Close()
		return nil, err
	}
	s := &benchServer{
		engine: engine,
		svc:    svc,
		srv: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
			WriteTimeout:      5 * time.Minute,
		},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		log:    logFile,
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server down, drains the job workers and waits for
// both to exit.
func (s *benchServer) stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.svc.Drain(ctx), s.log.Close())
	return err
}

// setup starts a server under dir and sends the warm-up pass: one
// operation of every distinct request shape, so every compile miss is
// paid before the window. It returns the server, the elapsed set-up
// time and the warm-up operations with their replies.
func setup(ctx context.Context, wl *workload, seed uint64, dir string, wrap func(http.Handler) http.Handler) (*benchServer, time.Duration, []opRecord, error) {
	start := time.Now()
	s, err := startServer(ctx, dir, wrap)
	if err != nil {
		return nil, 0, nil, err
	}
	cl := newClient(s.url, "w")
	defer cl.close()
	warm := make([]opRecord, 0, wl.Shapes)
	for i := 0; i < wl.Shapes; i++ {
		o, err := wl.Gen(seed, streamWarmup, i)
		if err != nil {
			return nil, 0, nil, errors.Join(err, s.stop(ctx))
		}
		r, err := cl.run(ctx, o, false)
		if err != nil {
			return nil, 0, nil, errors.Join(fmt.Errorf("warm-up op %d: %w", i, err), s.stop(ctx))
		}
		warm = append(warm, opRecord{index: i, op: o, reply: r})
	}
	return s, time.Since(start), warm, nil
}

// opRecord is one operation as the client saw it. Warm-up records keep
// their op; window records keep only their reply, and only when the
// oracle may check it (see keepReply), so the benchmark's own memory
// stays flat over the window (the oracle regenerates the op from its
// index).
type opRecord struct {
	index      int
	op         *op
	reply      *reply
	start, end time.Time
	cycles     int // measured cycles the op asked for (successful ops)
	err        error
}

func (r *opRecord) latency() time.Duration { return r.end.Sub(r.start) }

// windowResult is one timed closed-loop window.
type windowResult struct {
	records    []opRecord // in operation-index order
	start, end time.Time
	cpu        time.Duration // process CPU time spent during the window
	// rssMB is the median, over rssSlices equal slices of the window, of
	// the highest resident set size sampled in each slice.
	rssMB float64
}

func (w *windowResult) seconds() float64 { return w.end.Sub(w.start).Seconds() }

func (w *windowResult) successes() int {
	n := 0
	for i := range w.records {
		if w.records[i].err == nil {
			n++
		}
	}
	return n
}

// runWindow drives wl's closed loop against base for d: each client
// takes the next operation index, generates the op, times it and checks
// its reply, until the deadline passes. The window ends when the last
// in-flight operation completes.
func runWindow(ctx context.Context, wl *workload, base string, seed uint64, d time.Duration, ridPrefix string) *windowResult {
	var next atomic.Int64
	perClient := make([][]opRecord, wl.Clients)
	stopRSS := sampleRSS(d / rssSlices)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(base, ridPrefix)
			defer cl.close()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				o, err := wl.Gen(seed, streamWindow, i)
				if err != nil {
					perClient[c] = append(perClient[c], opRecord{index: i, err: err})
					continue
				}
				rec := opRecord{index: i, start: time.Now()}
				r, err := cl.run(ctx, o, false)
				rec.end, rec.err = time.Now(), err
				if err == nil {
					rec.cycles = o.cycles(r)
				}
				if keepReply(i) {
					rec.reply = r
				}
				perClient[c] = append(perClient[c], rec)
			}
		}()
	}
	wg.Wait()
	w := &windowResult{start: start, end: time.Now(), cpu: cpuTime() - cpu0, rssMB: stopRSS()}
	for _, recs := range perClient {
		w.records = append(w.records, recs...)
	}
	sort.Slice(w.records, func(i, j int) bool { return w.records[i].index < w.records[j].index })
	return w
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSlices is how many slices the window's memory samples are split
// into. A single process-lifetime peak (VmHWM) lands on whichever garbage
// collection cycle happens to overshoot most, so it swings by a third
// from run to run; the median of per-slice peaks is the peak a typical
// stretch of the window reaches, and still rises with every allocation
// the service makes per request.
const rssSlices = 20

// rssPeriod is the resident-set sampling period.
const rssPeriod = 10 * time.Millisecond

// sampleRSS samples the process's resident set size every rssPeriod
// until the returned stop function is called, which returns the median
// over consecutive slices of length slice of each slice's highest
// sample, in MB.
func sampleRSS(slice time.Duration) func() float64 {
	var peaks []float64
	peak, sliceEnd := 0.0, time.Now().Add(slice)
	stop := tick(rssPeriod, func(now time.Time) {
		peak = max(peak, residentMB())
		if now.After(sliceEnd) {
			peaks = append(peaks, peak)
			peak, sliceEnd = 0, sliceEnd.Add(slice)
		}
	})
	return func() float64 {
		stop()
		if peak > 0 {
			peaks = append(peaks, peak)
		}
		return median(peaks)
	}
}

// tick calls f every period on its own goroutine until the returned stop
// function is called; stop returns once that goroutine has exited.
func tick(period time.Duration, f func(now time.Time)) func() {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				f(now)
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// residentMB returns the process's current resident set size in MB
// (the second field of /proc/self/statm, in pages).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
