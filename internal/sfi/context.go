package sfi

// Context carries the current-domain identity for one worker goroutine.
//
// The paper's implementation keeps the current protection-domain ID in
// thread-local storage (scoped-tls). Go deliberately exposes no TLS, so
// this repository substitutes an explicit per-worker context holding a
// stack of domain IDs: every remote invocation pushes the callee's ID on
// entry and pops it on exit, so nested cross-domain calls attribute
// correctly. The substitution is behaviour-preserving — TLS was only used
// to answer "which domain is executing?" for policy and accounting.
//
// A Context must not be shared between goroutines (exactly as a TLS slot
// belongs to one thread); create one per worker with NewContext. It is
// deliberately unsynchronized: push/pop sit on the remote-invocation fast
// path that Figure 2 measures, and the single-owner discipline makes a
// lock dead weight. Sharing one across goroutines is a bug the race
// detector will flag.
type Context struct {
	stack []DomainID
}

// NewContext returns a context whose current domain is RootDomain.
func NewContext() *Context {
	return &Context{stack: make([]DomainID, 0, 8)}
}

// Current returns the domain the worker is presently executing in.
func (c *Context) Current() DomainID {
	if len(c.stack) == 0 {
		return RootDomain
	}
	return c.stack[len(c.stack)-1]
}

// Depth reports the cross-domain call depth (0 at root).
func (c *Context) Depth() int { return len(c.stack) }

// Reset truncates the stack back to RootDomain. The domain runtime
// resets the context a serving generation handed on when it exited, before
// the next generation serves with it; a generation abandoned mid-call by a
// hang verdict never hands its context on, since its goroutine may still
// be inside the call. Like every other Context method it must only be
// called by the goroutine that owns the context.
func (c *Context) Reset() { c.stack = c.stack[:0] }

func (c *Context) push(id DomainID) {
	c.stack = append(c.stack, id)
}

func (c *Context) pop() {
	if len(c.stack) > 0 {
		c.stack = c.stack[:len(c.stack)-1]
	}
}
