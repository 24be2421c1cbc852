// Package repro is a from-scratch Go reproduction of "System Programming
// in Rust: Beyond Safety" (Balasubramanian et al., HotOS 2017).
//
// The paper's three contributions and every substrate they rest on are
// implemented under internal/: zero-copy software fault isolation over a
// runtime-enforced linear ownership model (§3), static information-flow
// control by abstract interpretation of a purpose-built mini-Rust
// language (§4), and automatic alias-preserving checkpointing (§5) —
// plus the paper-motivated extensions: rollback-recovery for middleboxes
// with a replicated standby (a checkpointed domain.Stateful under the one
// supervised runner; see examples/rollback-middlebox), and verified
// kernel extensions (§6).
//
// Start with README.md; DESIGN.md holds the system inventory and
// per-experiment index; EXPERIMENTS.md records paper-vs-measured for
// every table and figure. This root package is the paper's evaluation:
// bench_test.go has one benchmark per table/figure, and the
// paper-claims traceability suite (claims_test.go) times the same
// Figure 2, §3 and Figure 3 steps, asserts their shape and prints their
// tables (go test -run TestClaim -v .).
package repro
