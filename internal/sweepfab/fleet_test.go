package sweepfab

import (
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/simstore"
	"repro/internal/workload"
)

// fleetBudget keeps the end-to-end fleet goldens fast: the comparison
// is about plumbing (keys, leases, store round trips), not simulated
// fidelity, so the cells are tiny.
var fleetBudget = experiment.Budget{Warmup: 1_000, Detail: 4_000}

// fleetRun spins a store server, a coordinator and n workers on
// loopback, runs the threshold sweep through the fabric, and returns
// the rendered table, the board counters, the coordinator cache's memo
// misses and the per-worker stats.
func fleetRun(t *testing.T, n int) (render string, counters Counters, misses uint64, workers []WorkerStats) {
	t.Helper()
	serverStore, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(simstore.Handler(serverStore))
	defer httpSrv.Close()

	coord := NewCoordinator(Config{
		Store:        simstore.NewRemote(httpSrv.URL),
		LeaseTimeout: time.Minute,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(lis)

	workers = make([]WorkerStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc := experiment.NewRunCache()
			rc.AttachStore(simstore.NewRemote(httpSrv.URL))
			workers[i], errs[i] = RunWorker(lis.Addr().String(), WorkerConfig{
				Name: fmt.Sprintf("w%d", i),
				Exec: experiment.Exec{Cache: rc},
			})
		}(i)
	}

	rc := experiment.NewRunCache()
	coord.AttachTo(rc)
	res := experiment.ThresholdSweep(experiment.Exec{Workers: 4, Cache: rc}, fleetBudget)
	render = res.Render()
	counters = coord.Board().Counters()
	_, misses = rc.Stats()
	coord.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return render, counters, misses, workers
}

// TestFleetByteIdentical is the fabric's acceptance golden: the
// threshold sweep rendered through a coordinator and 1, 2 or 4 workers
// is byte-identical to the single-process run, every cold cell is
// submitted once by the coordinator's memo and simulates exactly once
// fleet-wide, and the counters prove it.
func TestFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet golden runs ~200 tiny cells")
	}
	local := experiment.ThresholdSweep(experiment.Exec{Workers: 4}, fleetBudget).Render()
	for _, n := range []int{1, 2, 4} {
		render, counters, misses, workers := fleetRun(t, n)
		if render != local {
			t.Fatalf("%d-worker fleet render diverged from local run\nlocal:\n%s\nfleet:\n%s", n, local, render)
		}
		if counters.Submitted == 0 {
			t.Fatalf("%d workers: no cells flowed through the fabric", n)
		}
		// The memo is the one single-flight: each of its misses is one
		// submission, and each submission completes once.
		if counters.Submitted != misses || counters.Completions != counters.Submitted {
			t.Fatalf("%d workers: %d submissions and %d completions for %d memo misses",
				n, counters.Submitted, counters.Completions, misses)
		}
		if counters.Requeues != 0 || counters.Expirations != 0 || counters.Failures != 0 {
			t.Fatalf("%d workers: unclean counters %+v", n, counters)
		}
		// Exactly-once across the fleet: the workers' lease counts sum to
		// the submissions — no cell ran twice anywhere.
		var ran uint64
		for _, ws := range workers {
			ran += ws.Cells
		}
		if ran != counters.Submitted {
			t.Fatalf("%d workers: fleet ran %d cells for %d submissions", n, ran, counters.Submitted)
		}
	}
}

// TestFleetWarmReplay: after a fleet run, a fresh single-process cache
// over the same store directory replays the sweep byte-identically with
// zero simulations (every cell is a store hit).
func TestFleetWarmReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet golden runs ~130 tiny cells")
	}
	serverStore, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(simstore.Handler(serverStore))
	defer httpSrv.Close()

	coord := NewCoordinator(Config{
		Store:        simstore.NewRemote(httpSrv.URL),
		LeaseTimeout: time.Minute,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(lis)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := experiment.NewRunCache()
		rc.AttachStore(simstore.NewRemote(httpSrv.URL))
		RunWorker(lis.Addr().String(), WorkerConfig{Name: "w0", Exec: experiment.Exec{Cache: rc}})
	}()
	rc := experiment.NewRunCache()
	coord.AttachTo(rc)
	fleet := experiment.ThresholdSweep(experiment.Exec{Workers: 4, Cache: rc}, fleetBudget).Render()
	coord.Close()
	wg.Wait()

	// Warm replay: no fabric, no workers — just the published store.
	warm := experiment.NewRunCache()
	warm.AttachStore(simstore.NewRemote(httpSrv.URL))
	replay := experiment.ThresholdSweep(experiment.Exec{Workers: 4, Cache: warm}, fleetBudget).Render()
	if replay != fleet {
		t.Fatal("warm replay over the published store diverged from the fleet run")
	}
	st := warm.Store().Stats()
	if st.ResultMisses != 0 {
		t.Fatalf("warm replay re-simulated: %+v", st)
	}
}

// TestFleetCrashRerunsOnce: a worker that leases a cell and dies
// mid-flight triggers a requeue; the surviving worker re-runs the cell
// exactly once and the sweep completes with correct output.
func TestFleetCrashRerunsOnce(t *testing.T) {
	serverStore, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(simstore.Handler(serverStore))
	defer httpSrv.Close()
	coord := NewCoordinator(Config{
		Store:        simstore.NewRemote(httpSrv.URL),
		LeaseTimeout: time.Minute,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(lis)
	defer coord.Close()

	// The victim cell, submitted through the coordinator's own hook so
	// the test observes the same path experiments use.
	spec := experiment.NewCellSpec(sim.DefaultConfig(1), experiment.SchemeSPP,
		workload.MustByName("641.leela_s"), 1, fleetBudget)

	// Crash worker: leases the cell, then drops the connection without
	// completing or publishing.
	crash := dialRaw(t, lis.Addr().String())
	crash.send(encodeHello("crash"))
	crash.recvOp()

	resultCh := make(chan sim.Result, 1)
	go func() { resultCh <- coord.RunCell(spec) }()

	// The crash worker's lease request blocks until RunCell submits.
	crash.send(encodeLease())
	if op := crash.recvOp(); op != opFabCell {
		t.Fatalf("crash worker's lease response op 0x%02x, want opFabCell", op)
	}
	crash.conn.Close()

	// A healthy worker joins and rescues the cell.
	var wg sync.WaitGroup
	var stats WorkerStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := experiment.NewRunCache()
		rc.AttachStore(simstore.NewRemote(httpSrv.URL))
		stats, _ = RunWorker(lis.Addr().String(), WorkerConfig{Name: "rescue", Exec: experiment.Exec{Cache: rc}})
	}()

	r := <-resultCh
	if r.PerCore[0].IPC <= 0 {
		t.Fatalf("rescued cell returned a bogus result: %+v", r.PerCore[0])
	}
	// Cross-check against a direct local run of the same cell.
	localR := experiment.Exec{}.Run(spec)
	if r.PerCore[0].IPC != localR.PerCore[0].IPC {
		t.Fatalf("rescued IPC %v != local IPC %v", r.PerCore[0].IPC, localR.PerCore[0].IPC)
	}
	coord.Close()
	wg.Wait()
	c := coord.Board().Counters()
	if c.Disconnects != 1 || c.Requeues != 1 || c.Completions != 1 || c.Submitted != 1 {
		t.Fatalf("counters = %+v (want exactly one disconnect-requeue-completion)", c)
	}
	if stats.Cells != 1 {
		t.Fatalf("rescue worker ran %d cells, want 1 (the re-run, exactly once)", stats.Cells)
	}
}

// TestFleetCorruptPublishReopens: a completed cell whose published
// entry is corrupt is submitted again, once, and the second publish
// heals it.
func TestFleetCorruptPublishReopens(t *testing.T) {
	st, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Config{Store: st, LeaseTimeout: time.Minute})
	defer coord.Close()
	spec := experiment.NewCellSpec(sim.DefaultConfig(1), experiment.SchemeNone,
		workload.MustByName("641.leela_s"), 1, fleetBudget)

	// Board-level fake worker: the first lease publishes garbage, the
	// second simulates and publishes for real. Each lease blocks until
	// RunCell submits, or until the coordinator closes.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		id, _, _ := coord.Board().Lease("faker", coord.stop)
		st.SaveResult(spec.Key(), []byte("not a result"))
		coord.Board().Complete(id, true)

		id, specBytes, _ := coord.Board().Lease("faker", coord.stop)
		cs, err := experiment.DecodeCellSpec(specBytes)
		if err == nil {
			rc := experiment.NewRunCache()
			rc.AttachStore(st)
			experiment.Exec{Cache: rc}.Run(cs)
		}
		coord.Board().Complete(id, err == nil)
	}()

	r := coord.RunCell(spec)
	coord.Close()
	wg.Wait()
	if r.PerCore[0].IPC <= 0 {
		t.Fatalf("re-run cell returned a bogus result: %+v", r.PerCore[0])
	}
	want := Counters{Submitted: 2, Leases: 2, Completions: 2}
	if c := coord.Board().Counters(); c != want {
		t.Fatalf("counters = %+v, want %+v (one re-run, no failure)", c, want)
	}
}

// TestRunCellFailureBounded: a cell that fails on every worker is
// submitted runCellAttempts times, each a single lease, and then
// RunCell panics instead of looping.
func TestRunCellFailureBounded(t *testing.T) {
	serverStore, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(simstore.Handler(serverStore))
	defer httpSrv.Close()
	coord := NewCoordinator(Config{Store: simstore.NewRemote(httpSrv.URL), LeaseTimeout: time.Minute})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(lis)
	defer coord.Close()

	var wg sync.WaitGroup
	var stats WorkerStats
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := experiment.NewRunCache()
		rc.AttachStore(simstore.NewRemote(httpSrv.URL))
		stats, werr = RunWorker(lis.Addr().String(), WorkerConfig{Name: "w", Exec: experiment.Exec{Cache: rc}})
	}()

	// No worker can resolve this workload, so every run fails.
	doomed := experiment.CellSpec{Config: sim.DefaultConfig(1), Scheme: experiment.SchemeNone,
		Cores: []experiment.CoreSpec{{Workload: "no-such-workload", Seed: 1}}, Budget: fleetBudget}
	panicked := func() (p any) {
		defer func() { p = recover() }()
		coord.RunCell(doomed)
		return nil
	}()
	if panicked == nil {
		t.Fatal("RunCell returned for a cell that fails everywhere")
	}
	coord.Close()
	wg.Wait()
	if werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	want := Counters{Submitted: runCellAttempts, Leases: runCellAttempts,
		Completions: runCellAttempts, Failures: runCellAttempts}
	if c := coord.Board().Counters(); c != want {
		t.Fatalf("counters = %+v, want %+v", c, want)
	}
	if stats.Cells != runCellAttempts || stats.Failed != runCellAttempts {
		t.Fatalf("worker ran %d cells with %d failures, want %d of each", stats.Cells, stats.Failed, runCellAttempts)
	}
}

// startFleet serves a coordinator over a fresh disk store, with one
// worker publishing to the same store. stop closes the coordinator and
// returns the worker's stats once it has exited.
func startFleet(t *testing.T) (coord *Coordinator, stop func() WorkerStats) {
	t.Helper()
	st, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord = NewCoordinator(Config{Store: st, LeaseTimeout: time.Minute})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(lis)
	var stats WorkerStats
	var werr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rc := experiment.NewRunCache()
		rc.AttachStore(st)
		stats, werr = RunWorker(lis.Addr().String(), WorkerConfig{Name: "w", Exec: experiment.Exec{Cache: rc}})
	}()
	return coord, func() WorkerStats {
		coord.Close()
		<-done
		if werr != nil {
			t.Errorf("worker: %v", werr)
		}
		return stats
	}
}

// TestWorkerSurvivesBadConfig: a leased spec whose config the simulator
// rejects is a failed completion, not a worker crash, and the worker
// goes on to run the next cell.
func TestWorkerSurvivesBadConfig(t *testing.T) {
	coord, stop := startFleet(t)
	bad := experiment.NewCellSpec(sim.DefaultConfig(1), experiment.SchemeNone,
		workload.MustByName("641.leela_s"), 1, fleetBudget)
	bad.Config.FetchWidth = 0
	enc, err := bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	<-coord.Board().Submit(enc)
	good := experiment.NewCellSpec(sim.DefaultConfig(1), experiment.SchemeNone,
		workload.MustByName("641.leela_s"), 1, fleetBudget)
	if r := coord.RunCell(good); r.PerCore[0].IPC <= 0 {
		t.Fatalf("the cell after the bad one returned a bogus result: %+v", r.PerCore[0])
	}
	stats := stop()
	if stats.Cells != 2 || stats.Failed != 1 {
		t.Fatalf("worker ran %d cells with %d failures, want 2 with 1", stats.Cells, stats.Failed)
	}
	if c := coord.Board().Counters(); c.Failures != 1 || c.Completions != 2 {
		t.Fatalf("counters = %+v, want 2 completions, 1 of them failed", c)
	}
}

// TestFleetFourCoreCell: a 4-core mix crosses the fabric like a 1-core
// cell, and the worker's published result equals a local run's.
func TestFleetFourCoreCell(t *testing.T) {
	coord, stop := startFleet(t)
	spec := experiment.CellSpec{
		Config: sim.DefaultConfig(4),
		Scheme: experiment.SchemePPF,
		Cores:  experiment.Mix(workload.SPEC2017MemIntensive(), 4, 0),
		Budget: fleetBudget,
	}
	got := coord.RunCell(spec)
	if stats := stop(); stats.Cells != 1 || stats.Failed != 0 {
		t.Fatalf("worker ran %d cells with %d failures, want 1 clean run", stats.Cells, stats.Failed)
	}
	if want := (experiment.Exec{}).Run(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet result differs from a local run\nfleet: %+v\nlocal: %+v", got, want)
	}
}
