package domain

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/linear"
	"repro/internal/sim"
)

// TestPolicyFields pins the supervisor's knobs: the restart policy is
// one policy, and a new field of Policy or Config is a visible change.
func TestPolicyFields(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf(Policy{}), "Backoff MaxBackoff MaxRestarts HangAfter CheckpointEvery Persist Registry Recorder OnExhausted"},
		{reflect.TypeOf(Config[int]{}), "Name Mailbox Handler Release Recover State"},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			got = append(got, c.typ.Field(i).Name)
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("%s fields = %v, want %s", c.typ, got, c.want)
		}
	}
}

// TestSupervisorBackoffGrows: consecutive faults double the scheduled
// backoff, capped at MaxBackoff.
func TestSupervisorBackoffGrows(t *testing.T) {
	p := Policy{Backoff: time.Millisecond, MaxBackoff: 100 * time.Millisecond}.withDefaults()
	s := &Supervisor{policy: p}
	prev := time.Duration(0)
	for streak := uint64(1); streak <= 10; streak++ {
		b := s.backoffFor(streak)
		if b < prev {
			t.Fatalf("backoff shrank at streak %d: %v < %v", streak, b, prev)
		}
		if b > 100*time.Millisecond {
			t.Fatalf("backoff exceeds cap at streak %d: %v", streak, b)
		}
		prev = b
	}
	if got := s.backoffFor(3); got != 4*time.Millisecond {
		t.Fatalf("backoffFor(3) = %v, want 4ms", got)
	}
	if got := s.backoffFor(10); got != 100*time.Millisecond {
		t.Fatalf("backoffFor(10) = %v, want cap 100ms", got)
	}
}

// TestSupervisorSnapshotAggregates: the aggregate snapshot is the sum of
// the per-domain ones, same semantics as ShardedRunner.Snapshot.
func TestSupervisorSnapshotAggregates(t *testing.T) {
	s := NewSupervisor(fastPolicy(), sim.Wall{})
	defer s.Close()
	for i := 0; i < 3; i++ {
		d, err := Spawn(s, Config[int]{
			Name: fmt.Sprintf("w%d", i),
			Handler: func(msg linear.Owned[int]) error {
				_, err := msg.Into()
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			if err := d.Inbox().Send(linear.New(j)); err != nil {
				t.Fatal(err)
			}
		}
		d.Inbox().Close()
		<-d.Done()
	}
	per := s.Snapshots()
	if len(per) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(per))
	}
	agg := s.Snapshot()
	var sum uint64
	for _, sn := range per {
		sum += sn.Processed
	}
	if agg.Processed != sum || agg.Processed != 15 {
		t.Fatalf("aggregate processed = %d, want %d (=15)", agg.Processed, sum)
	}
	if agg.State != StateStopped {
		t.Fatalf("aggregate state = %v, want stopped", agg.State)
	}
}

// TestSupervisorStress is the race-tier stress: 8 domains with small
// (constantly full) mailboxes, concurrent producers, and concurrent
// injected crashes. Every payload must be accounted for exactly once —
// processed, tail-dropped, reclaimed at a crash, or drained at stop —
// and the supervisor must keep every domain serving throughout.
func TestSupervisorStress(t *testing.T) {
	const (
		workers  = 8
		producer = 4
		perProd  = 300
	)
	p := fastPolicy()
	s := NewSupervisor(p, sim.Wall{})
	defer s.Close()

	var processed, released atomic.Int64
	doms := make([]*Domain[int], workers)
	for w := 0; w < workers; w++ {
		d, err := Spawn(s, Config[int]{
			Name:    fmt.Sprintf("w%d", w),
			Mailbox: 2, // stays full: exercises tail-drop under pressure
			Release: func(int) { released.Add(1) },
			Handler: func(msg linear.Owned[int]) error {
				var v int
				if err := msg.With(func(x int) { v = x }); err != nil {
					return err
				}
				if v%17 == 0 {
					// Panic while still owning the payload: the entry
					// point must reclaim it through Release.
					panic("injected crash")
				}
				if _, err := msg.Into(); err != nil {
					return err
				}
				processed.Add(1)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		doms[w] = d
	}

	var sent, dropped atomic.Int64
	var wg sync.WaitGroup
	for pr := 0; pr < producer; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				d := doms[(pr+i)%workers]
				switch err := d.Inbox().trySend(linear.New(pr*perProd + i)); err {
				case nil:
					sent.Add(1)
				case errMailboxFull, ErrMailboxClosed:
					dropped.Add(1)
				default:
					t.Errorf("trySend: %v", err)
					return
				}
			}
		}(pr)
	}
	wg.Wait()
	for _, d := range doms {
		d.Inbox().Close()
	}
	for _, d := range doms {
		select {
		case <-d.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("domain did not drain after close")
		}
	}

	total := int64(producer * perProd)
	if sent.Load()+dropped.Load() != total {
		t.Fatalf("sent %d + dropped %d != %d", sent.Load(), dropped.Load(), total)
	}
	// Conservation: every accepted payload was either processed or
	// released (crash reclaim / stop drain); every rejected one was
	// released by the mailbox.
	waitFor(t, "payload conservation", func() bool {
		return processed.Load()+released.Load() == total
	})
	agg := s.Snapshot()
	if agg.Crashes == 0 {
		t.Fatal("stress run injected no crashes")
	}
	if agg.Restarts == 0 {
		t.Fatal("no restarts recorded")
	}
	t.Logf("stress: processed=%d released=%d crashes=%d restarts=%d drops=%d",
		processed.Load(), released.Load(), agg.Crashes, agg.Restarts, agg.MailboxDrops)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAbandonedLateSuccessCountsOnce: an invocation abandoned by a hang
// verdict that completes after its replacement took over is counted
// exactly once — 2 payloads received, 2 processed, nothing lost or
// double-counted — and sets off nothing else. The runtime never joins an
// abandoned goroutine, so the count is the one thing here that is waited
// for by polling.
func TestAbandonedLateSuccessCountsOnce(t *testing.T) {
	p := fastPolicy()
	p.HangAfter = 5 * time.Millisecond
	s, fc := fakeSupervisor(p)
	defer s.Close()
	entered, stall := make(chan struct{}), make(chan struct{})
	d, err := Spawn(s, Config[int]{
		Handler: func(msg linear.Owned[int]) error {
			v, err := msg.Into()
			if v < 0 {
				entered <- struct{}{}
				<-stall
			}
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fc.ExpectArmed(t, fc.Now().Add(p.hangTick()))
	_ = d.Inbox().Send(linear.New(-1))
	<-entered
	awaitHangVerdict(t, fc, d, p, fc.Now())
	fc.Next() // the restart
	_ = d.Inbox().Send(linear.New(1))
	close(stall)
	waitFor(t, "the late completion counted", func() bool { return d.Snapshot().Processed == 2 })
	d.Inbox().Close()
	<-d.Done()
	if sn := d.Snapshot(); sn.Processed != 2 || sn.MailboxRecvs != 2 || sn.Hangs != 1 || sn.Restarts != 1 {
		t.Fatalf("snapshot %+v: want 2 received, 2 processed, 1 hang, 1 restart", sn)
	}
}
