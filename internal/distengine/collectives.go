package distengine

import (
	"fmt"
	"slices"
	"sync"
)

// roundKind names one collective operation; workers of a job must all
// submit the same kind (and sequence number) each round or the job is
// desynchronized and aborted.
type roundKind int

const (
	roundReduceMax roundKind = iota + 1
	roundReduceSum
	roundGather
	roundExchange
)

func (k roundKind) String() string {
	switch k {
	case roundReduceMax:
		return "all-reduce-max"
	case roundReduceSum:
		return "all-reduce-sum"
	case roundGather:
		return "all-gather"
	case roundExchange:
		return "exchange"
	default:
		return fmt.Sprintf("roundKind(%d)", int(k))
	}
}

// round is one in-flight collective: contributions from every rank, then a
// combined result released to all of them at once.
type round struct {
	kind   roundKind
	seq    uint32
	joined int
	vals   []int64   // per-rank reduce contributions
	data   [][]int32 // per-rank gather/exchange payloads
	done   chan struct{}

	// Results, valid after done closes.
	val    int64
	gather []int32
	// route[r] is the exchange payload delivered to rank r: groups of
	// (src, len, data...) in ascending source order.
	route [][]int32
	err   error
}

// collective is the coordinator's hub implementation of the collectives
// the paper's message-passing model uses (mpvm simulates the same set):
// each worker-connection handler calls sync with its worker's
// contribution and blocks until all n workers of the job have joined the
// round, mirroring how a hardware combine network or an MPI all-reduce
// synchronizes real nodes.
type collective struct {
	n   int
	mu  sync.Mutex
	cur *round

	abortOnce sync.Once
	aborted   chan struct{}
	abortErr  error
}

func newCollective(n int) *collective {
	return &collective{n: n, aborted: make(chan struct{})}
}

// abort releases every blocked sync call (and all future ones) with err.
// The first call wins; later calls are no-ops.
func (c *collective) abort(err error) {
	c.abortOnce.Do(func() {
		c.mu.Lock()
		c.abortErr = err
		c.mu.Unlock()
		close(c.aborted)
	})
}

// abortError returns the error the collective was aborted with, if any.
func (c *collective) abortError() error {
	select {
	case <-c.aborted:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.abortErr
	default:
		return nil
	}
}

// sync joins rank's contribution to the current round and blocks until all
// n ranks have joined (or the collective is aborted). The round's combined
// result is returned to every rank.
func (c *collective) sync(rank int, kind roundKind, seq uint32, val int64, payload []int32) (*round, error) {
	c.mu.Lock()
	if err := c.abortErr; err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if c.cur == nil {
		c.cur = &round{
			kind: kind, seq: seq,
			vals: make([]int64, c.n),
			data: make([][]int32, c.n),
			done: make(chan struct{}),
		}
	}
	r := c.cur
	if r.kind != kind || r.seq != seq {
		desync := fmt.Errorf("distengine: collective desync: rank %d sent %v#%d during %v#%d",
			rank, kind, seq, r.kind, r.seq)
		c.mu.Unlock()
		c.abort(desync)
		return nil, desync
	}
	r.vals[rank] = val
	r.data[rank] = payload
	r.joined++
	last := r.joined == c.n
	if last {
		c.cur = nil
		r.finish(c.n)
		close(r.done)
	}
	c.mu.Unlock()
	if !last {
		select {
		case <-r.done:
		case <-c.aborted:
			c.mu.Lock()
			err := c.abortErr
			c.mu.Unlock()
			return nil, err
		}
	}
	return r, r.err
}

// finish computes the round's combined result from the n contributions.
func (r *round) finish(n int) {
	switch r.kind {
	case roundReduceMax:
		r.val = slices.Max(r.vals)
	case roundReduceSum:
		for _, v := range r.vals {
			r.val += v
		}
	case roundGather:
		r.gather = slices.Concat(r.data...)
	case roundExchange:
		r.route = make([][]int32, n)
		for src := 0; src < n; src++ {
			d := dec32{b: r.data[src]}
			for !d.empty() {
				dest := int(d.next())
				cnt := int(d.next())
				payload := d.take(cnt)
				if d.err != nil {
					r.err = fmt.Errorf("distengine: malformed exchange payload from rank %d", src)
					return
				}
				if dest < 0 || dest >= n {
					r.err = fmt.Errorf("distengine: exchange to rank %d of %d from rank %d", dest, n, src)
					return
				}
				r.route[dest] = append(r.route[dest], int32(src), int32(cnt))
				r.route[dest] = append(r.route[dest], payload...)
			}
		}
	}
}

// dec32 walks an []int32 payload with latching bounds checks, the int32
// sibling of dec.
type dec32 struct {
	b   []int32
	err error
}

func (d *dec32) empty() bool { return d.err != nil || len(d.b) == 0 }

func (d *dec32) next() int32 {
	if d.err != nil || len(d.b) < 1 {
		d.err = fmt.Errorf("distengine: truncated exchange group")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec32) take(n int) []int32 {
	if d.err != nil || n < 0 || len(d.b) < n {
		d.err = fmt.Errorf("distengine: truncated exchange group")
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}
