package domain

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/sfi"
	"repro/internal/telemetry"
)

// Policy parameterizes fault handling. The zero value gets sane defaults
// (see withDefaults).
type Policy struct {
	// Backoff is the delay before the first restart of a fault streak
	// (default 1ms). Each further consecutive fault doubles it, up to
	// MaxBackoff (default 1s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// MaxRestarts bounds a fault streak: when a domain's consecutive
	// faults exceed it, the domain stops. 0 means the default (16);
	// negative means unlimited.
	MaxRestarts int
	// HangAfter declares a domain hung when one handler invocation runs
	// longer than this; the stuck goroutine is abandoned (superseded) and
	// the domain restarted. The detector polls every HangAfter/4, clamped
	// to [1ms, 1s]. 0 disables hang detection.
	HangAfter time.Duration

	// CheckpointEvery enables §5 checkpointed recovery for domains that
	// carry a Config.State: each domain snapshots its state once per
	// epoch of this length, at mailbox-quiescent points, and a restart
	// restores the last good snapshot. 0 (the default) disables
	// checkpointing entirely — state then survives restarts unmanaged.
	CheckpointEvery time.Duration
	// Persist, when non-nil alongside CheckpointEvery, makes epochs
	// durable: every published checkpoint of a domain whose State
	// implements TokenCodec is encoded and appended to the store, and
	// Spawn seeds the domain from its newest durable epoch — so a
	// process restart (kill -9 included) restores where a plain restart
	// would have cold-started. Spawn fails if the State lacks a codec.
	Persist Persister

	// Registry, when non-nil, receives every spawned domain's counters
	// and gauges (labeled {domain=<name>}), the supervisor's aggregate
	// counters, and the sfi management plane's per-protection-domain
	// counters. Registration happens at Spawn time only; the data path
	// never touches the registry.
	Registry *telemetry.Registry
	// Recorder, when non-nil, is the flight recorder: every domain and
	// its mailbox record lifecycle and payload-movement events into it
	// (send, recv, drop, error, panic, hang, backoff, restart, stop). A
	// nil recorder records nothing at zero cost.
	Recorder *telemetry.Recorder
	// OnExhausted, when non-nil, runs on the monitor goroutine when a
	// domain exhausts its restart budget and stops for good, with a dump
	// of the flight recorder at that moment (nil when no Recorder is
	// configured). This is the black-box readout: the last events leading
	// up to the failure.
	OnExhausted func(name string, events []telemetry.Event)
}

func (p Policy) withDefaults() Policy {
	if p.Backoff <= 0 {
		p.Backoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 16
	}
	return p
}

// hangTick is the hang detector's poll interval: a quarter of HangAfter,
// clamped to [1ms, 1s].
func (p Policy) hangTick() time.Duration {
	return min(max(p.HangAfter/4, time.Millisecond), time.Second)
}

// child is the type-erased view the supervisor keeps of a Domain[T].
type child interface {
	Name() string
	State() State
	Snapshot() Snapshot
	currentEpoch() uint64
	supersede() uint64
	stalled(now time.Time, limit time.Duration) bool
	stop()
	serve(epoch uint64)
	recoverState() error
	pdom() *sfi.Domain
	bumpStreak() uint64
	noteBackoff(d time.Duration)
	noteRestart()
	noteHang()
	setState(s State)
	scheduleRestart(after time.Duration)
}

func (d *Domain[T]) currentEpoch() uint64 { return d.epoch.Load() }
func (d *Domain[T]) pdom() *sfi.Domain    { return d.pd }
func (d *Domain[T]) bumpStreak() uint64   { return d.faultStreak.Add(1) }
func (d *Domain[T]) setState(s State)     { d.state.Store(int32(s)) }

func (d *Domain[T]) noteBackoff(b time.Duration) {
	d.st.backoffNanos.Add(int64(b))
	d.rec.Record(d.actor, telemetry.EvBackoff, uint64(b))
}

func (d *Domain[T]) noteRestart() {
	d.st.restarts.Add(1)
	d.rec.Record(d.actor, telemetry.EvRestart, 0)
}

func (d *Domain[T]) noteHang() {
	d.st.hangs.Add(1)
	d.rec.Record(d.actor, telemetry.EvHang, 0)
}

// recoverState is the restart's state half, on the monitor goroutine:
// first the user Recover hook rebuilds the handler plumbing (the §3
// recovery function — e.g. fresh pipeline instances exported into the
// recovered reference table), then the §5 restore hands the rebuilt
// plumbing its last good checkpoint, cold-starting only when no epoch
// has completed.
func (d *Domain[T]) recoverState() error {
	if d.recover != nil {
		if err := d.recover(); err != nil {
			return err
		}
	}
	if d.ck == nil {
		return nil
	}
	return d.restoreOrReset()
}

// event is the monitor loop's single inbound message type: fault reports
// from serving goroutines and restart requests from backoff timers.
type event struct {
	restart bool
	c       child
	epoch   uint64 // the reporter's (fault) or target (restart) epoch
	err     error
}

// Supervisor owns a group of domains: it spawns them, watches for faults
// and hangs, and applies the restart policy. All policy decisions run on
// one monitor goroutine, so per-domain lifecycle transitions are
// serialized; the domains' data paths never block on the supervisor.
type Supervisor struct {
	policy Policy
	mgr    *sfi.Manager

	mu       sync.Mutex
	children []child

	events chan event
	stop   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	closed atomic.Bool

	// Aggregate counters (per-domain detail lives in each Domain).
	faults   telemetry.Counter
	hangs    telemetry.Counter
	restarts telemetry.Counter
}

// NewSupervisor starts a supervisor with the given policy.
func NewSupervisor(p Policy) *Supervisor {
	s := &Supervisor{
		policy: p.withDefaults(),
		mgr:    sfi.NewManager(),
		events: make(chan event, 128),
		stop:   make(chan struct{}),
	}
	if reg := s.policy.Registry; reg != nil {
		reg.RegisterCounter("supervisor_faults_total", nil, &s.faults)
		reg.RegisterCounter("supervisor_hangs_total", nil, &s.hangs)
		reg.RegisterCounter("supervisor_restarts_total", nil, &s.restarts)
		s.mgr.SetRegistry(reg, nil)
	}
	s.wg.Add(1)
	go s.monitor()
	return s
}

// Manager returns the sfi management plane the supervisor's protection
// domains live in.
func (s *Supervisor) Manager() *sfi.Manager { return s.mgr }

// ErrSupervisorClosed reports a Spawn on a closed supervisor.
var ErrSupervisorClosed = errors.New("domain: supervisor closed")

// Spawn creates a supervised domain and starts its serving goroutine.
// (A method cannot introduce a type parameter, hence the package-level
// function.)
func Spawn[T any](s *Supervisor, cfg Config[T]) (*Domain[T], error) {
	if cfg.Handler == nil {
		return nil, errors.New("domain: Config.Handler is required")
	}
	if s.closed.Load() {
		return nil, ErrSupervisorClosed
	}
	if cfg.Name == "" {
		cfg.Name = "domain"
	}
	if cfg.Mailbox <= 0 {
		cfg.Mailbox = 8
	}
	d := &Domain[T]{
		name:    cfg.Name,
		sup:     s,
		inbox:   NewMailbox(cfg.Mailbox, cfg.Release),
		release: cfg.Release,
		recover: cfg.Recover,
		handler: cfg.Handler,
		pd:      s.mgr.NewDomain(cfg.Name),
		done:    make(chan struct{}),
	}
	if cfg.State != nil && s.policy.CheckpointEvery > 0 {
		d.ck = &ckptState{
			state:  cfg.State,
			engine: checkpoint.NewEngine(checkpoint.RcAware),
			every:  s.policy.CheckpointEvery,
		}
		d.ck.lastAttempt.Store(time.Now().UnixNano())
		d.ck.recycler, _ = cfg.State.(tokenRecycler)
		if p := s.policy.Persist; p != nil {
			codec, ok := cfg.State.(TokenCodec)
			if !ok {
				return nil, fmt.Errorf("domain %s: Policy.Persist requires the State to implement TokenCodec (%T does not)", cfg.Name, cfg.State)
			}
			d.ck.persist = p
			d.ck.codec = codec
		}
	}
	d.state.Store(int32(StateLive))
	d.rec = s.policy.Recorder
	d.actor = d.rec.Actor(cfg.Name)
	d.inbox.Observe(d.rec, d.actor)
	if d.ck != nil && d.ck.persist != nil {
		// After the recorder is attached (loadDurable records EvRestore)
		// and before the serving goroutine starts: the domain's first
		// invocation already sees the restored state.
		if err := d.loadDurable(); err != nil {
			return nil, err
		}
	}
	if d.ck != nil {
		// After the last error return, so a failed Spawn leaves no ticker
		// running; stop stops it.
		d.ck.tick = time.NewTicker(d.ck.every)
	}
	if s.policy.Registry != nil {
		// One transaction for the domain's whole series group: a scrape
		// racing the spawn sees the group entirely or not at all, never
		// a half-registered domain.
		txn := s.policy.Registry.Begin()
		d.registerMetrics(txn)
		txn.Commit()
	}
	s.mu.Lock()
	s.children = append(s.children, d)
	s.mu.Unlock()
	d.epoch.Store(1)
	d.serve(1)
	return d, nil
}

// report delivers a fault from a serving goroutine to the monitor.
func (s *Supervisor) report(c child, epoch uint64, err error) {
	select {
	case s.events <- event{c: c, epoch: epoch, err: err}:
	case <-s.stop:
	}
}

// monitor is the single policy thread: it consumes fault reports and
// restart timers, and polls heartbeats for hang detection.
func (s *Supervisor) monitor() {
	defer s.wg.Done()
	tickC := make(<-chan time.Time) // never fires when hang detection is off
	if s.policy.HangAfter > 0 {
		t := time.NewTicker(s.policy.hangTick())
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case ev := <-s.events:
			if ev.restart {
				s.restart(ev.c, ev.epoch)
			} else {
				s.onFault(ev.c, ev.epoch, ev.err)
			}
		case now := <-tickC:
			s.checkHangs(now)
		}
	}
}

// onFault handles one fault report: verify it is current, clear the
// domain's reference table (§3 teardown — done here on the monitor, never
// by serving goroutines, so a stale generation cannot revoke a table its
// replacement already recovered), then apply the restart policy. The
// faulting goroutine has already unwound and reclaimed the payload.
func (s *Supervisor) onFault(c child, epoch uint64, err error) {
	if c.currentEpoch() != epoch || c.State() == StateStopped {
		return // superseded or retired while the report was in flight
	}
	s.faults.Add(1)
	c.pdom().Reset()
	s.applyPolicy(c)
}

// checkHangs abandons domains stuck inside one handler invocation beyond
// the policy limit.
func (s *Supervisor) checkHangs(now time.Time) {
	s.mu.Lock()
	kids := append([]child(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		if c.State() == StateLive && c.stalled(now, s.policy.HangAfter) {
			s.abandon(c)
		}
	}
}

// abandon is the hang verdict on c: supersede its serving goroutine (it
// exits silently at its next checkpoint), clear the reference table, and
// restart. The verdict can race the end of the handler it judged, so the
// superseded generation may be anywhere past it — capturing an epoch, or
// inside the store's append — when the replacement restores.
func (s *Supervisor) abandon(c child) {
	c.noteHang()
	s.hangs.Add(1)
	c.supersede()
	c.pdom().Reset()
	s.applyPolicy(c)
}

// applyPolicy runs the restart decision for a faulted or hung domain:
// stop it when the streak exceeds the budget, otherwise schedule its
// restart after exponential backoff.
func (s *Supervisor) applyPolicy(c child) {
	streak := c.bumpStreak()
	if s.policy.MaxRestarts >= 0 && streak > uint64(s.policy.MaxRestarts) {
		// Budget exhausted: the domain leaves service. Dump the flight
		// recorder first so the readout shows the events that led here;
		// the stop event appended by the transition itself is visible to
		// later dumps.
		if hook := s.policy.OnExhausted; hook != nil {
			hook(c.Name(), s.policy.Recorder.Dump())
		}
		c.stop()
		return
	}
	backoff := s.backoffFor(streak)
	c.setState(StateBackoff)
	c.noteBackoff(backoff)
	c.scheduleRestart(backoff)
}

// scheduleRestart asks the monitor, after delay, to restart the epoch
// the domain is in now. Only the monitor calls it.
func (d *Domain[T]) scheduleRestart(delay time.Duration) {
	d.restartEpoch.Store(d.epoch.Load())
	if d.backoff == nil {
		d.backoff = time.AfterFunc(delay, d.restartDue)
		return
	}
	d.backoff.Reset(delay)
}

// restartDue is the backoff timer's function.
func (d *Domain[T]) restartDue() {
	s := d.sup
	select {
	case s.events <- event{restart: true, c: d, epoch: d.restartEpoch.Load()}:
	case <-s.stop:
	}
}

// backoffFor computes the exponential backoff for the given
// consecutive-fault count (streak >= 1): Backoff·2^(streak−1), capped at
// MaxBackoff.
func (s *Supervisor) backoffFor(streak uint64) time.Duration {
	b, limit := s.policy.Backoff, s.policy.MaxBackoff
	for i := uint64(1); i < streak; i++ {
		if b > limit/2 {
			return limit
		}
		b *= 2
	}
	return min(b, limit)
}

// restart brings a domain back after backoff: recover the sfi protection
// domain (re-populating reference-table slots via its sfi recovery
// function, if set), run the user recovery function, and start a fresh
// serving goroutine. The epoch recorded at schedule time guards against
// double serving: if anything superseded the domain meanwhile (a hang, a
// stop, a later restart), this request is stale and dropped.
func (s *Supervisor) restart(c child, epoch uint64) {
	if s.closed.Load() || c.State() == StateStopped || c.currentEpoch() != epoch {
		return
	}
	pd := c.pdom()
	if pd.Failed() {
		if err := s.mgr.Recover(pd); err != nil {
			s.faults.Add(1)
			s.applyPolicy(c)
			return
		}
	}
	if err := c.recoverState(); err != nil {
		// Recovery itself faulted: count it and go around again; the
		// streak keeps growing, so this converges on stop.
		s.faults.Add(1)
		s.applyPolicy(c)
		return
	}
	c.noteRestart()
	s.restarts.Add(1)
	c.setState(StateLive)
	c.serve(c.supersede())
}

// Close stops the monitor and retires every domain: inboxes are closed,
// backlogs destroyed through the release hooks, Done channels closed.
// Stuck (abandoned) handler goroutines are not waited for; they exit at
// their next checkpoint.
func (s *Supervisor) Close() {
	s.once.Do(func() {
		s.closed.Store(true)
		close(s.stop)
	})
	s.wg.Wait()
	s.mu.Lock()
	kids := append([]child(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		c.stop()
	}
}

// Snapshots returns a point-in-time Snapshot per domain, in spawn order —
// the per-worker view, like ShardedRunner.WorkerSnapshots.
func (s *Supervisor) Snapshots() []Snapshot {
	s.mu.Lock()
	kids := append([]child(nil), s.children...)
	s.mu.Unlock()
	out := make([]Snapshot, len(kids))
	for i, c := range kids {
		out[i] = c.Snapshot()
	}
	return out
}

// Snapshot aggregates every domain's counters into one Snapshot named
// "supervisor", under the contract documented on MergeSnapshots. Like
// ShardedRunner.Snapshot it is a point-in-time copy of monotonic atomic
// counters, safe to call during a live run.
func (s *Supervisor) Snapshot() Snapshot {
	return MergeSnapshots("supervisor", s.Snapshots())
}

// MergeSnapshots folds per-domain snapshots into one aggregate named
// name. This is the shared merge contract for the runtime's snapshot
// views (Supervisor.Snapshot here, ShardedRunner's RunStats merge in
// netbricks), matching the package telemetry snapshot contract: every
// counter is a sum of monotonic per-domain counters, each read
// point-in-time (the aggregate is not atomic across inputs or fields);
// MailboxDepth sums instantaneous gauges; State is the most-alive input
// state (StateLive if any domain still serves, else StateStopped).
func MergeSnapshots(name string, snaps []Snapshot) Snapshot {
	agg := Snapshot{Name: name, State: StateStopped}
	for _, sn := range snaps {
		if sn.State != StateStopped {
			agg.State = StateLive
		}
		agg.Processed += sn.Processed
		agg.Errors += sn.Errors
		agg.Crashes += sn.Crashes
		agg.Hangs += sn.Hangs
		agg.Restarts += sn.Restarts
		agg.Reclaimed += sn.Reclaimed
		agg.TimeInBackoff += sn.TimeInBackoff
		agg.Checkpoints += sn.Checkpoints
		agg.CheckpointFailures += sn.CheckpointFailures
		agg.Restores += sn.Restores
		agg.ColdStarts += sn.ColdStarts
		agg.Persisted += sn.Persisted
		agg.PersistFailures += sn.PersistFailures
		agg.MailboxDepth += sn.MailboxDepth
		agg.MailboxSends += sn.MailboxSends
		agg.MailboxRecvs += sn.MailboxRecvs
		agg.MailboxDrops += sn.MailboxDrops
	}
	return agg
}

// String summarizes the supervisor's aggregate counters.
func (s *Supervisor) String() string {
	return fmt.Sprintf("supervisor{faults=%d hangs=%d restarts=%d}",
		s.faults.Load(), s.hangs.Load(), s.restarts.Load())
}
