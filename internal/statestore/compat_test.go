package statestore_test

// compat_test.go holds the two promises the one-pass epoch path makes
// about bytes: formats are the parent commit's (a store it wrote opens
// and restores), and an epoch's bytes, once persisted, are what the store
// reads back whatever the caller does with its buffer.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/domain"
	"repro/internal/firewall"
	"repro/internal/maglev"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/statestore"
)

// nfState is one worker's three NF states and their composition.
type nfState struct {
	fw  *firewall.Stateful
	lb  *maglev.Balancer
	tbl *session.Table
	ix  *statestore.FlowIndex
	set *domain.StateSet
}

// resolve reads a flow through the table's RAM into its spill index
// without promoting it: where a tracked packet's promotion would find it.
func resolve(tbl *session.Table, ix session.Spill, h uint64) (packet.IPv4, bool) {
	if ip, ok := tbl.Entries()[h]; ok {
		return ip, true
	}
	rec, ok, err := ix.LookupFlow(h)
	if err != nil || !ok {
		return 0, false
	}
	return rec.Backend, true
}

// flowImages splits a session table's wire image (session's v1 token
// layout: a 5-byte header, then one 42-byte entry per resident flow
// that starts with the flow hash) into entries by hash.
func flowImages(t *testing.T, tbl *session.Table) map[uint64][]byte {
	t.Helper()
	img, err := tbl.AppendCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := map[uint64][]byte{}
	for e := img[5:]; len(e) >= 42; e = e[42:] {
		out[binary.LittleEndian.Uint64(e)] = e[:42]
	}
	return out
}

// newParentStoreState builds the NF state of testdata/parent-store's
// recipe over store: two rules (one shared by two prefixes), three
// backends, a 16-flow session table spilling to the store's index.
func newParentStoreState(t *testing.T, store *statestore.Store) *nfState {
	t.Helper()
	db := firewall.NewDB(firewall.Deny)
	shared, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow, Comment: "service"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachRule(packet.Addr(10, 98, 0, 0), 16, shared); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddRule(packet.Addr(10, 99, 7, 0), 24, firewall.Rule{ID: 2, Action: firewall.Deny, Proto: 17, DstPort: 53, Comment: "no dns"}); err != nil {
		t.Fatal(err)
	}
	st := &nfState{tbl: session.NewTable()}
	if st.fw, err = firewall.NewStateful(db); err != nil {
		t.Fatal(err)
	}
	st.lb, err = maglev.NewBalancer([]maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
		{Name: "be-2", IP: packet.Addr(10, 1, 0, 3)},
	}, 251)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := store.FlowIndex("worker-0")
	if err != nil {
		t.Fatal(err)
	}
	st.ix = ix
	st.tbl.SetSpill(ix, 16)
	st.set = domain.NewStateSet().Add("firewall", st.fw).Add("maglev", st.lb).Add("session", st.tbl)
	return st
}

func recipeTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{SrcIP: packet.IPv4(0x0a000000 + uint32(i)), DstIP: packet.Addr(10, 99, 0, 1), SrcPort: uint16(1024 + i), DstPort: 80, Proto: 17}
}

func (st *nfState) track(from, to int) {
	for i := from; i < to; i++ {
		tu := recipeTuple(i)
		be := st.lb.Pick(tu)
		for k := 0; k <= i%3; k++ {
			st.tbl.Track(tu, be.IP, 64+i)
		}
	}
}

// persist takes one epoch the way the domain runtime does.
func (st *nfState) persist(t *testing.T, store *statestore.Store, seq uint64) []byte {
	t.Helper()
	tok, err := st.set.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := st.set.EncodeToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PersistEpoch("worker-0", seq, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

// parentStoreRecipe replays the traffic testdata/parent-store was
// written under and returns the third epoch's payload.
func parentStoreRecipe(t *testing.T, store *statestore.Store, st *nfState) []byte {
	st.track(0, 20)
	st.persist(t, store, 1)
	st.track(10, 30)
	st.persist(t, store, 2)
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	st.track(25, 40)
	return st.persist(t, store, 3)
}

// sameNFState compares everything a restore must bring back.
func sameNFState(t *testing.T, got, want *nfState) {
	t.Helper()
	ge, we := got.tbl.Entries(), want.tbl.Entries()
	if len(ge) != len(we) {
		t.Fatalf("restored %d resident flows, want %d", len(ge), len(we))
	}
	for h, ip := range we {
		if ge[h] != ip {
			t.Fatalf("flow %x → %v, want %v", h, ge[h], ip)
		}
	}
	for i := 0; i < 40; i++ { // resident or spilled, every flow resolves the same
		h := recipeTuple(i).Hash()
		gip, gok := resolve(got.tbl, got.ix, h)
		wip, wok := resolve(want.tbl, want.ix, h)
		if gip != wip || gok != wok {
			t.Fatalf("flow %d resolves to %v,%v, want %v,%v", i, gip, gok, wip, wok)
		}
	}
	gi, wi := flowImages(t, got.tbl), flowImages(t, want.tbl)
	for h, w := range wi {
		if !bytes.Equal(gi[h], w) {
			t.Fatalf("flow %x restored as %x, want %x (tuple, Spilled flag, backend, counters)", h, gi[h], w)
		}
	}
	gh, gm := got.lb.Stats()
	wh, wm := want.lb.Stats()
	if gh != wh || gm != wm || got.lb.ConnCount() != want.lb.ConnCount() {
		t.Fatalf("balancer %d conns %d/%d, want %d conns %d/%d", got.lb.ConnCount(), gh, gm, want.lb.ConnCount(), wh, wm)
	}
	for i := 0; i < 40; i++ {
		if g, w := got.lb.Pick(recipeTuple(i)), want.lb.Pick(recipeTuple(i)); g != w {
			t.Fatalf("flow %d sticks to %+v, want %+v", i, g, w)
		}
	}
	gd, gn := got.fw.DB().RuleCount()
	wd, wn := want.fw.DB().RuleCount()
	if gd != wd || gn != wn {
		t.Fatalf("firewall %d rules/%d handles, want %d/%d", gd, gn, wd, wn)
	}
	for _, tu := range []packet.FiveTuple{
		{DstIP: packet.Addr(10, 99, 0, 1), Proto: 17, DstPort: 80},
		{DstIP: packet.Addr(10, 98, 3, 1), Proto: 6, DstPort: 443},
		{DstIP: packet.Addr(10, 99, 7, 9), Proto: 17, DstPort: 53},
		{DstIP: packet.Addr(10, 97, 0, 1), Proto: 17, DstPort: 80},
	} {
		ga, _ := got.fw.DB().Match(tu)
		wa, _ := want.fw.DB().Match(tu)
		if ga != wa {
			t.Fatalf("Match(%+v) = %v, want %v", tu, ga, wa)
		}
	}
}

// canonicalSet reorders a state-set token's map-ordered entries so two
// captures of equal state compare byte for byte: the firewall part is
// already deterministic (trie walk); maglev's 18-byte conn entries (all
// recipe backend names are 4 bytes) and session's 42-byte flow entries
// are sorted.
func canonicalSet(t *testing.T, data []byte) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	off := 4
	for part, sortFrom := range []struct{ hdr, entry int }{{0, 0}, {21, 18}, {5, 42}} {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		body := out[off+4 : off+4+n]
		off += 4 + n
		if sortFrom.entry == 0 {
			continue
		}
		entries := body[sortFrom.hdr:]
		if len(entries)%sortFrom.entry != 0 {
			t.Fatalf("part %d: %d entry bytes are not a multiple of %d", part, len(entries), sortFrom.entry)
		}
		chunks := make([][]byte, 0, len(entries)/sortFrom.entry)
		for i := 0; i < len(entries); i += sortFrom.entry {
			chunks = append(chunks, append([]byte(nil), entries[i:i+sortFrom.entry]...))
		}
		sort.Slice(chunks, func(i, j int) bool { return bytes.Compare(chunks[i], chunks[j]) < 0 })
		for i, c := range chunks {
			copy(entries[i*sortFrom.entry:], c)
		}
	}
	if off != len(out) {
		t.Fatalf("state-set token: %d bytes framed, %d present", off, len(out))
	}
	return out
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpensParentWrittenStore: a store directory written by the parent
// commit (WAL + base.db + flow index) opens under this code, restores to
// exactly the state the same traffic produces live, and the token this
// code writes for that state is the parent's, byte for byte, up to map
// iteration order.
func TestOpensParentWrittenStore(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "parent-store"), dir)
	old, err := statestore.Open(statestore.Config{Dir: dir})
	if err != nil {
		t.Fatalf("open parent-written store: %v", err)
	}
	old.SetCompactAfter(-1).SetFlowCompactAfter(10)
	defer old.Close()
	if torn, domains := old.StatsSnapshot().TornRecords, old.EpochCount(); torn != 0 || domains != 1 {
		t.Fatalf("parent-written store: %d torn bytes, %d domains; want 0, 1", torn, domains)
	}
	parentPayload, seq, ok, err := old.LastEpoch("worker-0")
	if err != nil || !ok || seq != 3 {
		t.Fatalf("LastEpoch = seq %d ok %v err %v, want the WAL's epoch 3 over base.db's epoch 2", seq, ok, err)
	}
	restored := newParentStoreState(t, old)
	tok, err := restored.set.DecodeToken(parentPayload)
	if err != nil {
		t.Fatalf("decode parent token: %v", err)
	}
	if err := restored.set.Restore(tok); err != nil {
		t.Fatalf("restore parent token: %v", err)
	}

	freshDir := t.TempDir()
	fresh, err := statestore.Open(statestore.Config{Dir: freshDir})
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetCompactAfter(-1).SetFlowCompactAfter(10)
	defer fresh.Close()
	live := newParentStoreState(t, fresh)
	ourPayload := parentStoreRecipe(t, fresh, live)
	sameNFState(t, restored, live)

	if !bytes.Equal(canonicalSet(t, ourPayload), canonicalSet(t, parentPayload)) {
		t.Fatal("the token written for the recipe's state differs from the parent's by more than entry order")
	}
	// Frames too: same record and frame layout means same file sizes.
	for _, name := range []string{"wal.log", "base.db"} {
		ours, err := os.Stat(filepath.Join(freshDir, name))
		if err != nil {
			t.Fatal(err)
		}
		theirs, err := os.Stat(filepath.Join("testdata", "parent-store", name))
		if err != nil {
			t.Fatal(err)
		}
		if ours.Size() != theirs.Size() {
			t.Fatalf("%s is %d bytes, the parent wrote %d for the same epochs", name, ours.Size(), theirs.Size())
		}
	}
}

// TestEpochBytesAreImmutable: once PersistEpoch returns, an epoch's
// bytes are the store's alone, whatever happens to the caller's buffer.
// The caller scribbles over it and the state moves on, and the store
// still reads back the state the epoch captured — through LastEpoch,
// after a compaction and after a reopen — and two restores of what it
// reads give live states that share nothing.
func TestEpochBytesAreImmutable(t *testing.T) {
	dir := t.TempDir()
	store, err := statestore.Open(statestore.Config{Dir: dir, Fsync: statestore.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	store.SetFlowCompactAfter(10)
	defer store.Close()
	st := newParentStoreState(t, store)
	st.track(0, 12)
	first := st.persist(t, store, 1)
	pristine := bytes.Clone(first)
	for i := range first {
		first[i] = 0xee
	}
	st.track(12, 40)

	// The reference for "the state it captured": the same traffic, live.
	refStore, err := statestore.Open(statestore.Config{Dir: t.TempDir(), Fsync: statestore.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	refStore.SetFlowCompactAfter(10)
	defer refStore.Close()
	ref := newParentStoreState(t, refStore)
	ref.track(0, 12)

	readBack := func(s *statestore.Store, what string) []byte {
		t.Helper()
		got, seq, ok, err := s.LastEpoch("worker-0")
		if err != nil || !ok || seq != 1 || !bytes.Equal(got, pristine) {
			t.Fatalf("%s: LastEpoch = seq %d ok %v err %v; want epoch 1's bytes as handed over", what, seq, ok, err)
		}
		return got
	}
	readBack(store, "after the caller wrote over its buffer")
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	retained := readBack(store, "after a compaction")
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := statestore.Open(statestore.Config{Dir: dir, Fsync: statestore.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	reopened.SetFlowCompactAfter(10)
	defer reopened.Close()
	readBack(reopened, "after a reopen")

	restore := func() *nfState {
		s, err := statestore.Open(statestore.Config{Dir: t.TempDir(), Fsync: statestore.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		s.SetFlowCompactAfter(10)
		t.Cleanup(func() { s.Close() })
		out := newParentStoreState(t, s)
		tok, err := out.set.DecodeToken(retained)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.set.Restore(tok); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := restore()
	sameNFState(t, a, ref)
	// Run the first restore forward; a second restore of the same bytes
	// must still be the captured state.
	a.track(12, 40)
	b := restore()
	ref2Store, err := statestore.Open(statestore.Config{Dir: t.TempDir(), Fsync: statestore.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ref2Store.SetFlowCompactAfter(10)
	defer ref2Store.Close()
	ref2 := newParentStoreState(t, ref2Store)
	ref2.track(0, 12)
	sameNFState(t, b, ref2)
	if !bytes.Equal(retained, pristine) {
		t.Fatal("restoring wrote to the epoch buffer")
	}
}
