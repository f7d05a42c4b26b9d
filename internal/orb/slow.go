package orb

import (
	"time"

	"itv/internal/obs"
	"itv/internal/wire"
)

// Wire form of the slow-call ledger scrape (the node operation _slow): the
// node's live tail estimate, then a count of ledger entries, then per
// entry the sequence, unix-nano time, HLC, node, trace id, method, peer,
// and the total / queue / service / flush / threshold durations.

// SlowReport couples one node's ledger entries with the tail-latency
// estimate its admission threshold derives from.
type SlowReport struct {
	Estimate time.Duration
	Calls    []obs.SlowCall
}

func appendSlowCalls(e *wire.Encoder, l *obs.SlowLedger) {
	calls := l.Calls()
	e.PutInt(int64(l.Estimate()))
	e.PutUint(uint64(len(calls)))
	for _, c := range calls {
		e.PutUint(c.Seq)
		e.PutInt(c.Time.UnixNano())
		e.PutUint(uint64(c.HLC))
		e.PutString(c.Node)
		e.PutUint(c.Trace)
		e.PutString(c.Method)
		e.PutString(c.Peer)
		e.PutInt(int64(c.Total))
		e.PutInt(int64(c.Queue))
		e.PutInt(int64(c.Service))
		e.PutInt(int64(c.Flush))
		e.PutInt(int64(c.Threshold))
	}
}

func decodeSlowCalls(d *wire.Decoder) *SlowReport {
	r := &SlowReport{Estimate: time.Duration(d.Int())}
	n := d.Count()
	for i := 0; i < n; i++ {
		var c obs.SlowCall
		c.Seq = d.Uint()
		c.Time = time.Unix(0, d.Int())
		c.HLC = obs.HLCTime(d.Uint())
		c.Node = d.String()
		c.Trace = d.Uint()
		c.Method = d.String()
		c.Peer = d.String()
		c.Total = time.Duration(d.Int())
		c.Queue = time.Duration(d.Int())
		c.Service = time.Duration(d.Int())
		c.Flush = time.Duration(d.Int())
		c.Threshold = time.Duration(d.Int())
		if d.Err() != nil {
			break
		}
		r.Calls = append(r.Calls, c)
	}
	return r
}

// SlowOf scrapes the slow-call ledger of the endpoint at addr; itv-admin's
// slow command fans it out across the cluster to locate where tail latency
// is being manufactured.
func (e *Endpoint) SlowOf(addr string) (*SlowReport, error) {
	var out *SlowReport
	err := e.Invoke(NodeRef(addr), "_slow", nil, func(d *wire.Decoder) error {
		out = decodeSlowCalls(d)
		return nil
	})
	return out, err
}
