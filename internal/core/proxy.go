package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/vclock"
)

// Proxy is the paper's "smart proxy" (§2.1): a binding wrapper that, when
// the request manager fails and the client/server group is disbanded,
// transparently rebinds to a surviving member of the server group and
// retries the call with its original call number — the retained replies at
// the servers guarantee the retry never re-executes.
type Proxy struct {
	svc *Service
	cfg BindConfig

	mu      sync.Mutex
	binding *Binding
	// members is every server-group member this proxy has learned of,
	// newest membership first, used to pick a new contact when the old
	// one has failed. Older members are kept because a contact can answer
	// with a view that has shrunk to itself (a survivor that split from
	// the others during a view change); the others are still alive and
	// worth trying when that contact fails too.
	members []ids.ProcessID
	// failed remembers every request manager whose binding broke under
	// this proxy; rebinds try them only after every other candidate.
	failed map[ids.ProcessID]bool
	// rebinding is non-nil while a rebind is in flight and closed when it
	// ends, with its outcome in binding or rebindErr. A caller that finds
	// the binding broken waits for the rebind in flight instead of
	// starting its own (single flight): a second rebind would tear down
	// the first one's fresh binding, and the caller would have lost track
	// of the failed manager it must avoid.
	rebinding chan struct{}
	rebindErr error
	closed    bool
}

// maxRebinds bounds the rebind attempts of a single invocation.
const maxRebinds = 4

// NewProxy binds once and returns the self-rebinding proxy.
func (s *Service) NewProxy(ctx context.Context, cfg BindConfig) (*Proxy, error) {
	p := &Proxy{svc: s, cfg: cfg, failed: make(map[ids.ProcessID]bool)}
	b, err := p.rebind(ctx, nil)
	if err != nil {
		return nil, err
	}
	p.binding = b
	return p, nil
}

// Binding returns the current underlying binding.
func (p *Proxy) Binding() *Binding {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.binding
}

// Close releases the current binding.
func (p *Proxy) Close() error {
	p.mu.Lock()
	b := p.binding
	p.closed = true
	p.binding = nil
	p.mu.Unlock()
	if b != nil {
		return b.Close()
	}
	return nil
}

// Call performs one invocation (Invoker surface), rebinding and retrying
// with the same call number whenever the binding breaks under it — the
// retained replies at the servers make the retry idempotent.
func (p *Proxy) Call(ctx context.Context, method string, args []byte, opts ...CallOption) ([]Reply, error) {
	o := p.resolveProxyOpts(opts)
	return p.callResolved(ctx, method, args, o)
}

// InvokeAsync launches one invocation and returns its future; the
// rebind-and-retry loop runs in the background. The proxy has no window
// of its own — each attempt occupies a slot of the current underlying
// binding's window.
func (p *Proxy) InvokeAsync(ctx context.Context, method string, args []byte, opts ...CallOption) (*Call, error) {
	o := p.resolveProxyOpts(opts)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.mu.Unlock()
	p.svc.metrics.asyncCalls.Inc()
	c := newCallFuture(o.call, o.mode, ctx)
	go func() {
		replies, err := p.callResolved(c.ctx, method, args, o)
		if errors.Is(err, context.Canceled) {
			p.svc.metrics.asyncCancelled.Inc()
		}
		c.complete(replies, err)
	}()
	return c, nil
}

// resolveProxyOpts fills the options a retry loop must keep stable: the
// call identifier (idempotent retries) and the trace (every attempt of
// one logical call lands in one trace).
func (p *Proxy) resolveProxyOpts(opts []CallOption) callOpts {
	o := resolveCallOpts(opts)
	if !o.hasCall {
		o.call = p.svc.newCall()
		o.hasCall = true
	}
	if o.trace == 0 {
		o.trace = obs.NewTraceID()
	}
	return o
}

// callResolved drives the rebind-and-retry loop for one invocation.
func (p *Proxy) callResolved(ctx context.Context, method string, args []byte, o callOpts) ([]Reply, error) {
	var lastErr error
	for attempt := 0; attempt <= maxRebinds; attempt++ {
		b, err := p.healthy(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if errors.Is(err, ErrClosed) {
				return nil, err
			}
			lastErr = err
			continue
		}

		replies, err := b.Call(ctx, method, args,
			WithCallID(o.call), WithMode(o.mode), WithTrace(o.trace))
		if err == nil {
			return replies, nil
		}
		lastErr = err
		if !errors.Is(err, ErrBindingBroken) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("core: proxy exhausted rebinds: %w", lastErr)
}

// Read serves one read-only invocation through the current binding
// (Invoker surface), rebinding and retrying when the binding breaks.
// Reads carry no call number — they never execute as ordered requests, so
// there is nothing to retain — but the session token survives the rebind:
// the replacement binding inherits the old one's stamp, so read-your-writes
// holds across a request manager failure.
func (p *Proxy) Read(ctx context.Context, method string, args []byte, opts ...CallOption) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= maxRebinds; attempt++ {
		b, err := p.healthy(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if errors.Is(err, ErrClosed) {
				return nil, err
			}
			lastErr = err
			continue
		}

		payload, err := b.Read(ctx, method, args, opts...)
		if err == nil {
			return payload, nil
		}
		lastErr = err
		if !errors.Is(err, ErrBindingBroken) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("core: proxy exhausted rebinds: %w", lastErr)
}

// SessionStamp returns the current binding's session token (zero when the
// proxy is between bindings).
func (p *Proxy) SessionStamp() vclock.Stamp {
	p.mu.Lock()
	b := p.binding
	p.mu.Unlock()
	if b == nil {
		return vclock.Stamp{}
	}
	return b.SessionStamp()
}

// maxKnownMembers bounds how many server-group members a proxy remembers.
const maxKnownMembers = 64

// mergeMembers returns the latest membership followed by the members of
// older ones it lacks, capped at maxKnownMembers.
func mergeMembers(latest, older []ids.ProcessID) []ids.ProcessID {
	out := latest
	for _, m := range older {
		if len(out) >= maxKnownMembers {
			break
		}
		if !ids.ContainsProcess(out, m) {
			out = append(out, m)
		}
	}
	return out
}

// healthy returns the current binding if it is intact. Otherwise it
// rebinds once — leading a new rebind, or waiting for the one already in
// flight — and returns the outcome. The broken binding's request manager
// joins the failed set before the rebind starts.
func (p *Proxy) healthy(ctx context.Context) (*Binding, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	b := p.binding
	if b != nil && !b.Broken() {
		p.mu.Unlock()
		return b, nil
	}
	if wait := p.rebinding; wait != nil {
		p.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.closed {
			return nil, ErrClosed
		}
		if p.binding != nil {
			return p.binding, nil
		}
		return nil, p.rebindErr
	}
	done := make(chan struct{})
	p.rebinding = done
	p.binding = nil
	if b != nil {
		p.failed[b.RequestManager()] = true
	}
	p.mu.Unlock()

	nb, err := p.rebind(ctx, b)

	p.mu.Lock()
	p.binding, p.rebindErr, p.rebinding = nb, err, nil
	p.mu.Unlock()
	close(done)
	return nb, err
}

// rebind forms a fresh binding to replace old (nil for the first bind),
// trying the configured contact and the known membership before any
// request manager that has failed under this proxy.
func (p *Proxy) rebind(ctx context.Context, old *Binding) (*Binding, error) {
	var session vclock.Stamp
	if old != nil {
		// Only re-binds count — the initial NewProxy bind is not a failure.
		p.svc.metrics.rebinds.Inc()
		session = old.SessionStamp()
		_ = old.Close()
	}

	p.mu.Lock()
	var healthy, failed []ids.ProcessID
	add := func(m ids.ProcessID) {
		if m.Nil() || ids.ContainsProcess(healthy, m) || ids.ContainsProcess(failed, m) {
			return
		}
		if p.failed[m] {
			failed = append(failed, m)
		} else {
			healthy = append(healthy, m)
		}
	}
	add(p.cfg.Contact)
	for _, m := range p.members {
		add(m)
	}
	contacts := append(healthy, failed...)
	p.mu.Unlock()
	if len(contacts) == 0 {
		contacts = append(contacts, p.cfg.Contact)
	}

	var lastErr error
	for _, contact := range contacts {
		cfg := p.cfg
		cfg.Contact = contact
		if cfg.Restricted && old != nil {
			// The restricted request manager just failed: fall back to
			// an arbitrary surviving member until the group elects a new
			// leader, rather than re-binding to the corpse.
			cfg.Restricted = false
		}
		b, err := p.svc.Bind(ctx, cfg)
		if err != nil {
			lastErr = err
			continue
		}
		rm := b.RequestManager()
		p.mu.Lock()
		landedOnFailed := p.failed[rm] && rm != contact
		p.mu.Unlock()
		if cfg.Style == Open && landedOnFailed {
			// The contact's membership still lists a failed manager and
			// the bind chose it; a failed contact tried as a last resort
			// is taken at its word instead.
			_ = b.Close()
			lastErr = fmt.Errorf("core: rebind landed on failed manager %s", rm)
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = b.Close()
			return nil, ErrClosed
		}
		b.noteStamp(session) // read-your-writes survives the rebind
		p.members = mergeMembers(b.KnownServers(), p.members)
		delete(p.failed, rm) // it answered: no longer presumed failed
		p.mu.Unlock()
		return b, nil
	}
	if lastErr == nil {
		lastErr = ErrNoServers
	}
	return nil, fmt.Errorf("core: rebind: %w", lastErr)
}
