package lint

// This file is the checked-in static allocation-budget manifest the
// allocflow analyzer enforces (ci.sh "static alloc budgets" stage). Each
// entry names one hot-path entry point and the maximum number of
// unsuppressed allocation sites that may be statically reachable from it.
//
// The numbers are ceilings on *sites in the source*, not allocations per
// operation: static analysis walks every branch, including cold ones
// (view installation, flush, resend), so a budget here is always well
// above the runtime AllocGuard budgets — the cross-check test in
// internal/gcs asserts exactly that ordering. What the manifest buys is
// regression detection: a new composite literal, boxing conversion or
// growing append anywhere in an entry point's call closure pushes the
// count over its ceiling and fails CI with the offending sites listed.
//
// Raising a budget is allowed but must be deliberate: prefer annotating
// the specific cold-path site with //lint:ok allocflow <reason>, which
// discounts it from every entry, and keep the ceilings tight around the
// counts the current code produces.

// AllocBudget is one entry-point ceiling.
type AllocBudget struct {
	Entry string // pkg.Func, pkg.(*T).Method or pkg.T.Method
	Max   int    // maximum unsuppressed reachable allocation sites
	Note  string // which hot-path stage this entry guards
}

// DefaultAllocBudgets returns the manifest for the real module.
func DefaultAllocBudgets() []AllocBudget {
	return []AllocBudget{
		{Entry: "newtop/internal/gcs.(*Group).Multicast", Max: 40, Note: "application send path: batch, emit, encode, transport handoff"},
		{Entry: "newtop/internal/gcs.(*Node).dispatch", Max: 120, Note: "ingest path: decode, accept, order, deliver tail"},
		{Entry: "newtop/internal/gcs.encodeMessage", Max: 8, Note: "wire encode of one protocol envelope"},
		{Entry: "newtop/internal/gcs.decodeMessage", Max: 28, Note: "wire decode of one protocol envelope"},
		{Entry: "newtop/internal/transport/tcpnet.(*Endpoint).Send", Max: 48, Note: "transport enqueue onto the per-peer pipe"},
		{Entry: "newtop/internal/transport/tcpnet.(*pipe).run", Max: 38, Note: "writer pipeline: coalesce, frame, flush"},
		{Entry: "newtop/internal/transport/tcpnet.(*Endpoint).readLoop", Max: 22, Note: "reader: frame split, arena carve, inbound handoff"},
		{Entry: "newtop/internal/obs/flight.(*Recorder).Record", Max: 3, Note: "flight-recorder event append"},
		{Entry: "newtop/internal/core.(*Server).serveReadLocal", Max: 20, Note: "leased local read: lease check, session floor, handler run, reply"},
		{Entry: "newtop/internal/core.(*Binding).InvokeAsync", Max: 82, Note: "open/closed invocation launch: options, waiter, request encode, multicast, reply wait"},
		{Entry: "newtop/internal/core.(*Server).handleGroupEvent", Max: 73, Note: "replica side: typed decode, execution, reply multicast, reply gather"},
		{Entry: "newtop/internal/core.(*Server).serveAsRM", Max: 91, Note: "request manager: retry filter, re-multicast, collector, reply-set answer"},
		{Entry: "newtop/internal/core.decodePayload", Max: 15, Note: "typed decode of one invocation-layer envelope"},
		{Entry: "newtop/internal/transport.(*muxChannel).Send", Max: 5, Note: "generic mux send: the one framing copy"},
		{Entry: "newtop/internal/shard.(*Ring).OwnerBytes", Max: 0, Note: "sharded routing: per-invocation key->shard lookup must not allocate"},
	}
}
