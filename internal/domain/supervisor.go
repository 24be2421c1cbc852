package domain

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
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
	// the domain restarted. The supervisor's monitor polls for it every
	// HangAfter/4, clamped to [1ms, 1s], so a stuck handler holds its
	// domain for up to HangAfter plus one poll. 0 disables hang
	// detection; nf-pipeline runs with 10s, far above its slowest batch.
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
	// process restart (kill -9 included) restores the state the dead
	// process last made durable. Spawn fails if the State lacks a codec.
	Persist Persister

	// Registry, when non-nil, receives every spawned domain's counters
	// and gauges (labeled {domain=<name>}) and the supervisor's aggregate
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

// hangTick is the hang poll's interval: HangAfter/4, clamped to [1ms, 1s].
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
	idleEpoch(now time.Time) time.Time
	stop()
	recoverState() error
	bumpStreak() uint64
	backOff(d time.Duration)
	resume()
	noteHang()
}

func (d *Domain[T]) currentEpoch() uint64 { return d.epoch.Load() }
func (d *Domain[T]) bumpStreak() uint64   { return d.faultStreak.Add(1) }

// backOff puts the domain in backoff for b.
func (d *Domain[T]) backOff(b time.Duration) {
	d.state.Store(int32(StateBackoff))
	d.st.backoffNanos.Add(int64(b))
	d.rec.Record(d.actor, telemetry.EvBackoff, uint64(b))
}

// resume ends a restart: the domain is live again under a fresh serving
// goroutine.
func (d *Domain[T]) resume() {
	d.st.restarts.Add(1)
	d.rec.Record(d.actor, telemetry.EvRestart, 0)
	d.state.Store(int32(StateLive))
	d.serve(d.supersede())
}

func (d *Domain[T]) noteHang() {
	d.st.hangs.Add(1)
	d.rec.Record(d.actor, telemetry.EvHang, 0)
}

// recoverState is a restart's recovery, on the monitor goroutine: the
// user Recover hook rebuilds the handler plumbing (the §3 recovery
// function — e.g. fresh stage instances re-exported into their protection
// domains' cleared tables), and the §5 restore hands the rebuilt plumbing
// its last good checkpoint (Spawn's seed until a periodic epoch
// completes).
func (d *Domain[T]) recoverState() error {
	if d.recover != nil {
		if err := d.recover(); err != nil {
			return err
		}
	}
	if d.ck == nil {
		return nil
	}
	return d.restoreLast()
}

// event is a fault report from a serving goroutine to the monitor.
type event struct {
	c     child
	epoch uint64 // the reporter's
}

// Supervisor owns a group of domains: it spawns them, watches for faults
// and hangs, and applies the restart policy. All policy decisions run on
// one monitor goroutine, so per-domain lifecycle transitions are
// serialized; the domains' data paths never block on the supervisor. The
// monitor owns every deadline too: backoffs, idle epochs, the hang poll.
type Supervisor struct {
	policy Policy
	clock  clock

	// children is append-only; closed is set under mu, so a Spawn appends
	// before Close reads children, or fails.
	mu       sync.Mutex
	children []child
	closed   atomic.Bool

	events chan event
	kick   chan struct{} // Spawn's wake for the monitor (cap 1)
	stop   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	// Aggregate counters (per-domain detail lives in each Domain).
	faults   telemetry.Counter
	hangs    telemetry.Counter
	restarts telemetry.Counter
}

// NewSupervisor starts a supervisor with the given policy.
func NewSupervisor(p Policy) *Supervisor { return newSupervisor(p, wallClock{}) }

func newSupervisor(p Policy, clk clock) *Supervisor {
	s := &Supervisor{
		policy: p.withDefaults(),
		clock:  clk,
		events: make(chan event, 128),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	if reg := s.policy.Registry; reg != nil {
		reg.RegisterCounter("supervisor_faults_total", nil, &s.faults)
		reg.RegisterCounter("supervisor_hangs_total", nil, &s.hangs)
		reg.RegisterCounter("supervisor_restarts_total", nil, &s.restarts)
	}
	s.wg.Add(1)
	go s.monitor()
	return s
}

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
		done:    make(chan struct{}),
	}
	if cfg.State != nil && s.policy.CheckpointEvery > 0 {
		d.ck = &ckptState{
			state:  cfg.State,
			engine: checkpoint.NewEngine(checkpoint.RcAware),
			every:  s.policy.CheckpointEvery,
			wake:   make(chan struct{}, 1),
		}
		d.ck.lastAttempt.Store(s.clock.now().UnixNano())
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
	if d.ck != nil {
		// After the recorder is attached (a durable seed records
		// EvRestore) and before the serving goroutine starts: the
		// domain's first invocation already sees a restored state.
		if err := d.seed(); err != nil {
			return nil, err
		}
	}
	d.epoch.Store(1)
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, ErrSupervisorClosed
	}
	s.children = append(s.children, d)
	s.mu.Unlock()
	if s.policy.Registry != nil {
		// One transaction: a scrape racing the spawn sees the domain's
		// whole series group or none of it.
		txn := s.policy.Registry.Begin()
		d.registerMetrics(txn)
		txn.Commit()
	}
	// Wake the monitor, which may have nothing armed, to schedule d.
	select {
	case s.kick <- struct{}{}:
	default:
	}
	d.serve(1) // a Close that stopped d meanwhile retired epoch 1 first
	return d, nil
}

// kids returns the children spawned so far: a stable view, no copy.
func (s *Supervisor) kids() []child {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.children
}

// pending is a child's restart in the monitor's schedule: when its backoff
// ends (zero: none pending) and the epoch it was scheduled in.
type pending struct {
	c     child
	at    time.Time
	epoch uint64
}

// monitor is the single policy thread and the package's one timer loop.
// Each wake — a fault report, a Spawn, the alarm — reads the clock once,
// scans every child and re-arms the alarm at the earliest deadline left.
// A wake allocates nothing.
func (s *Supervisor) monitor() {
	defer s.wg.Done()
	fired, arm := s.clock.alarm()
	defer arm(time.Time{}, time.Time{})
	var sched []pending
	var hangAt time.Time // the next hang poll
	for {
		var ev event
		select {
		case <-s.stop:
			return
		case ev = <-s.events:
		case <-s.kick:
		case <-fired:
		}
		now := s.clock.now()
		for _, c := range s.kids()[len(sched):] {
			sched = append(sched, pending{c: c})
		}
		hangs := s.policy.HangAfter > 0 && !hangAt.After(now)
		if hangs {
			hangAt = now.Add(s.policy.hangTick())
		}
		next := hangAt
		for i := range sched {
			p := &sched[i]
			if p.c == ev.c {
				s.onFault(p, ev.epoch, now)
			}
			next = earliest(next, s.scan(p, now, hangs))
		}
		arm(next, now)
	}
}

// scan restarts a child whose backoff has ended, gives the hang verdict
// on a stuck one when the poll is due, and wakes an idle one whose epoch
// is due. It returns the child's next deadline, zero when it has none.
func (s *Supervisor) scan(p *pending, now time.Time, hangs bool) time.Time {
	if !p.at.IsZero() && !p.at.After(now) {
		p.at = time.Time{}
		s.restart(p, now)
	}
	if hangs && p.c.State() == StateLive && p.c.stalled(now, s.policy.HangAfter) {
		s.abandon(p, now)
	}
	return earliest(p.at, p.c.idleEpoch(now))
}

// earliest returns the earlier of two deadlines, a zero one meaning none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// onFault handles one fault report: verify it is current, then apply the
// restart policy. The faulting goroutine has already unwound and
// reclaimed the payload.
func (s *Supervisor) onFault(p *pending, epoch uint64, now time.Time) {
	if p.c.currentEpoch() != epoch || p.c.State() == StateStopped {
		return // superseded or retired while the report was in flight
	}
	s.faults.Add(1)
	s.applyPolicy(p, now)
}

// abandon is the hang verdict on a child: supersede its serving goroutine
// (it exits silently at its next checkpoint) and restart. The verdict can
// race the end of the handler it judged, so the superseded generation may
// be anywhere past it — capturing an epoch, or inside the store's append —
// when the replacement restores.
func (s *Supervisor) abandon(p *pending, now time.Time) {
	p.c.noteHang()
	s.hangs.Add(1)
	p.c.supersede()
	s.applyPolicy(p, now)
}

// applyPolicy runs the restart decision for a faulted or hung domain:
// stop it when the streak exceeds the budget, otherwise schedule its
// restart after exponential backoff.
func (s *Supervisor) applyPolicy(p *pending, now time.Time) {
	streak := p.c.bumpStreak()
	if s.policy.MaxRestarts >= 0 && streak > uint64(s.policy.MaxRestarts) {
		// Budget exhausted: the domain leaves service. Dump the flight
		// recorder first so the readout shows the events that led here;
		// the stop event appended by the transition itself is visible to
		// later dumps.
		if hook := s.policy.OnExhausted; hook != nil {
			hook(p.c.Name(), s.policy.Recorder.Dump())
		}
		p.c.stop()
		return
	}
	backoff := s.backoffFor(streak)
	p.c.backOff(backoff)
	p.at, p.epoch = now.Add(backoff), p.c.currentEpoch()
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

// restart brings a domain back after backoff: recover it and start a
// fresh serving goroutine. The epoch recorded at schedule time guards
// against double serving: if anything superseded the domain meanwhile (a
// hang, a stop, a later restart), this restart is stale and dropped.
func (s *Supervisor) restart(p *pending, now time.Time) {
	if s.closed.Load() || p.c.State() == StateStopped || p.c.currentEpoch() != p.epoch {
		return
	}
	if err := p.c.recoverState(); err != nil {
		// Recovery itself faulted: count it and go around again; the
		// streak keeps growing, so this converges on stop.
		s.faults.Add(1)
		s.applyPolicy(p, now)
		return
	}
	s.restarts.Add(1)
	p.c.resume()
}

// Close stops the monitor and retires every domain: inboxes are closed,
// backlogs destroyed through the release hooks, Done channels closed.
// Stuck (abandoned) handler goroutines are not waited for; they exit at
// their next checkpoint.
func (s *Supervisor) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		s.closed.Store(true)
		s.mu.Unlock()
		close(s.stop)
	})
	s.wg.Wait()
	for _, c := range s.kids() {
		c.stop()
	}
}

// Snapshots returns a point-in-time Snapshot per domain, in spawn order —
// the per-worker view, like ShardedRunner.WorkerSnapshots.
func (s *Supervisor) Snapshots() []Snapshot {
	kids := s.kids()
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
