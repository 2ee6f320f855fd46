package main

import (
	"io"
	"net/http"
	"sync/atomic"
)

// countingTransport is an http.RoundTripper that counts the body bytes
// sent and received through it. Headers are not counted: the figure is
// the payload the cluster wire protocol moves.
type countingTransport struct {
	base http.RoundTripper
	sent atomic.Int64
	recv atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil && req.Body != http.NoBody {
		// RoundTrippers must not modify the caller's request: count
		// through a shallow copy with a wrapped body.
		r := req.Clone(req.Context())
		r.Body = &countingBody{ReadCloser: req.Body, n: &c.sent}
		req = r
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.recv}
	return resp, nil
}

// bytes returns the total body bytes moved so far, both directions.
func (c *countingTransport) bytes() int64 { return c.sent.Load() + c.recv.Load() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
