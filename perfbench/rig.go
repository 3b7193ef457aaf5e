package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/sectopk"
)

// rig is the paper's four parties in one process: the owner, S2 (the
// crypto cloud) behind a loopback TCP listener, S1 (the data cloud)
// dialed to it, and S1's client plane listening for queriers on a second
// loopback port.
type rig struct {
	owner *sectopk.Owner
	er    *sectopk.EncryptedRelation
	cc    *sectopk.CryptoCloud
	dc    *sectopk.DataCloud
	// addr is the client-plane address queriers dial.
	addr string

	setup   time.Duration // NewOwner until ServeClients listens
	encrypt time.Duration // Owner.Encrypt alone

	cancel context.CancelFunc
	wg     sync.WaitGroup
	errMu  sync.Mutex
	errs   []error
}

// newRig stands the parties up and times it: key generation, Encrypt,
// Register, Dial, Host and one token issue, until the client plane
// listens. sink, when non-nil, receives S1's query spans.
func newRig(rel *sectopk.Relation, shards int, first sectopk.Query, sink sectopk.TraceSink) (*rig, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{cancel: cancel}
	start := time.Now()
	var err error
	if r.owner, err = sectopk.NewOwner(sectopk.WithKeyBits(keyBits), sectopk.WithShards(shards)); err != nil {
		cancel()
		return nil, fmt.Errorf("owner: %w", err)
	}
	encStart := time.Now()
	if r.er, err = r.owner.Encrypt(rel); err != nil {
		cancel()
		return nil, fmt.Errorf("encrypt: %w", err)
	}
	r.encrypt = time.Since(encStart)

	r.cc = sectopk.NewCryptoCloud()
	if err := r.cc.Register(relationID, r.owner.Keys()); err != nil {
		r.close()
		return nil, fmt.Errorf("register: %w", err)
	}
	s2l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("s2 listen: %w", err)
	}
	r.serve(func() error { return r.cc.Serve(ctx, s2l) })

	var opts []sectopk.Option
	if sink != nil {
		opts = append(opts, sectopk.WithTraceSink(sink))
	}
	r.dc = sectopk.NewDataCloud(opts...)
	if err := r.dc.Dial(ctx, s2l.Addr().String()); err != nil {
		r.close()
		return nil, fmt.Errorf("dial s2: %w", err)
	}
	if err := r.dc.Host(ctx, relationID, r.er); err != nil {
		r.close()
		return nil, fmt.Errorf("host: %w", err)
	}
	if _, err := r.owner.Token(r.er, first); err != nil {
		r.close()
		return nil, fmt.Errorf("token: %w", err)
	}
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("client listen: %w", err)
	}
	r.addr = cl.Addr().String()
	r.serve(func() error { return r.dc.ServeClients(ctx, cl) })
	r.setup = time.Since(start)
	return r, nil
}

// serve runs one listener loop until the rig closes.
func (r *rig) serve(loop func() error) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		if err := loop(); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, net.ErrClosed) {
			r.errMu.Lock()
			r.errs = append(r.errs, err)
			r.errMu.Unlock()
		}
	}()
}

// dial opens one querier connection to S1's client plane.
func (r *rig) dial(ctx context.Context) (*sectopk.Client, error) {
	c, err := sectopk.Dial(ctx, r.addr)
	if err != nil {
		return nil, fmt.Errorf("dial s1: %w", err)
	}
	return c, nil
}

// close stops every party and waits for the serving loops to return.
// It reports the first error a serving loop ended with.
func (r *rig) close() error {
	r.cancel()
	if r.dc != nil {
		r.dc.Close()
	}
	if r.cc != nil {
		r.cc.Close()
	}
	r.wg.Wait()
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return errors.Join(r.errs...)
}
