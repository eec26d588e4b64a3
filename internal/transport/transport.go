// Package transport defines the point-to-point datagram abstraction every
// protocol layer is built on, deliberately weak so that all reliability
// lives above it:
//
//   - delivery is best-effort: messages may be dropped, delayed, and
//     reordered, but are never corrupted or duplicated by the transport;
//   - there is no connection state visible to the user: Send never blocks
//     on the destination;
//   - an endpoint learns nothing from Send succeeding — failure detection
//     is a separate protocol (package fd).
//
// Two implementations exist: memnet (an in-memory network with scripted
// partitions, loss, latency, and crash/restart, used by tests, examples,
// and experiments) and tcpnet (real sockets, used by the cmd/ binaries).
package transport

import (
	"errors"

	"hafw/internal/ids"
	"hafw/internal/wire"
)

// Handler consumes envelopes delivered to an endpoint. Implementations are
// invoked sequentially per endpoint and must not block for long; anything
// slow should hand off to its own goroutine or queue.
type Handler func(env wire.Envelope)

// Transport is one endpoint's attachment to a network.
type Transport interface {
	// Self returns the endpoint this transport speaks for.
	Self() ids.EndpointID
	// Send transmits m to the destination, best-effort. A nil error means
	// the message was accepted for transmission, not that it will arrive.
	// The receiver gets a copy of m, but a transport may read m's byte
	// slices of wire.OutOfLine bytes or more after Send returns, until
	// they are written out (tcpnet does): the caller must not modify them.
	Send(to ids.EndpointID, m wire.Message) error
	// SetHandler installs the delivery callback. It must be called before
	// any traffic is expected; envelopes arriving with no handler set are
	// dropped (as a real host drops datagrams for an unbound port).
	SetHandler(h Handler)
	// Close detaches the endpoint. Subsequent Sends fail with ErrClosed.
	Close() error
}

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("transport: endpoint closed")
