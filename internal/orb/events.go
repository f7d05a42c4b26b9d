package orb

import (
	"time"

	"itv/internal/obs"
	"itv/internal/wire"
)

// Wire form of the flight-recorder scrape (the node operation _events): an
// event count, then per event the sequence, unix-nano time, HLC, node, trace
// id, name and detail.  Two optional uints in the request paginate: events
// with Seq > afterSeq, up to max of them (none — the common full scrape —
// returns the ring).

func appendEvents(e *wire.Encoder, events []obs.Event) {
	e.PutUint(uint64(len(events)))
	for _, ev := range events {
		e.PutUint(ev.Seq)
		e.PutInt(ev.Time.UnixNano())
		e.PutUint(uint64(ev.HLC))
		e.PutString(ev.Node)
		e.PutUint(ev.Trace)
		e.PutString(ev.Name)
		e.PutString(ev.Detail)
	}
}

// minEventBytes is the least an event occupies on the wire: four one-byte
// numbers and three empty strings.
const minEventBytes = 7

func decodeEvents(d *wire.Decoder) []obs.Event {
	n := d.CountOf(minEventBytes)
	out := make([]obs.Event, 0, n)
	for i := 0; i < n; i++ {
		var ev obs.Event
		ev.Seq = d.Uint()
		ev.Time = time.Unix(0, d.Int())
		ev.HLC = obs.HLCTime(d.Uint())
		ev.Node = d.String()
		ev.Trace = d.Uint()
		ev.Name = d.String()
		ev.Detail = d.String()
		if d.Err() != nil {
			break
		}
		out = append(out, ev)
	}
	return out
}

// EventsOf scrapes the flight-recorder ring of the endpoint at addr;
// itv-admin fans it out across the cluster to build the merged failover
// timeline.
func (e *Endpoint) EventsOf(addr string) ([]obs.Event, error) {
	return e.EventsPageOf(addr, 0, 0)
}

// EventsPageOf scrapes events with Seq > afterSeq (up to max of them; 0
// means no limit) from the endpoint at addr — the paginated form of
// EventsOf, letting a periodic scraper resume from its cursor instead of
// re-reading the whole ring each pass.
func (e *Endpoint) EventsPageOf(addr string, afterSeq uint64, max int) ([]obs.Event, error) {
	var out []obs.Event
	err := e.Invoke(NodeRef(addr), "_events", func(enc *wire.Encoder) {
		if afterSeq != 0 || max != 0 {
			enc.PutUint(afterSeq)
			enc.PutUint(uint64(max))
		}
	}, func(d *wire.Decoder) error {
		out = decodeEvents(d)
		return nil
	})
	return out, err
}
