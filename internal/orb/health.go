package orb

import (
	"time"

	"itv/internal/obs"
	"itv/internal/wire"
)

// Wire form of the health scrape (the node operation _health): the node's
// identity and clock state, its measured peer offsets, and its recent
// metric windows.  The request carries one optional uint bounding how many
// windows to return (0 = all).

func appendHealth(e *wire.Encoder, r *obs.HealthReport) {
	e.PutString(r.Node)
	e.PutInt(r.Now.UnixNano())
	e.PutUint(uint64(r.HLC))
	e.PutUint(uint64(len(r.Offsets)))
	for _, o := range r.Offsets {
		e.PutString(o.Peer)
		e.PutInt(int64(o.Offset))
		e.PutInt(int64(o.Uncertainty))
		e.PutInt(o.At.UnixNano())
	}
	e.PutUint(uint64(len(r.Windows)))
	for _, w := range r.Windows {
		e.PutInt(w.Start.UnixNano())
		e.PutInt(w.End.UnixNano())
		e.PutUint(uint64(w.HLC))
		e.PutInt(w.Goroutines)
		e.PutInt(w.HeapBytes)
		e.PutInt(w.GCPauseNs)
		e.PutInt(w.NumGC)
		e.PutUint(uint64(len(w.Samples)))
		for _, s := range w.Samples {
			e.PutString(s.Name)
			e.PutUint(uint64(s.Kind))
			e.PutFloat(s.Value)
		}
	}
}

func decodeHealth(d *wire.Decoder) *obs.HealthReport {
	r := &obs.HealthReport{}
	r.Node = d.String()
	r.Now = time.Unix(0, d.Int())
	r.HLC = obs.HLCTime(d.Uint())
	no := d.Count()
	for i := 0; i < no && d.Err() == nil; i++ {
		var o obs.OffsetSample
		o.Peer = d.String()
		o.Offset = time.Duration(d.Int())
		o.Uncertainty = time.Duration(d.Int())
		o.At = time.Unix(0, d.Int())
		r.Offsets = append(r.Offsets, o)
	}
	nw := d.Count()
	for i := 0; i < nw && d.Err() == nil; i++ {
		var w obs.HealthWindow
		w.Start = time.Unix(0, d.Int())
		w.End = time.Unix(0, d.Int())
		w.HLC = obs.HLCTime(d.Uint())
		w.Goroutines = d.Int()
		w.HeapBytes = d.Int()
		w.GCPauseNs = d.Int()
		w.NumGC = d.Int()
		ns := d.Count()
		for j := 0; j < ns && d.Err() == nil; j++ {
			var s obs.Sample
			s.Name = d.String()
			s.Kind = obs.SampleKind(d.Uint())
			s.Value = d.Float()
			w.Samples = append(w.Samples, s)
		}
		if d.Err() != nil {
			break
		}
		r.Windows = append(r.Windows, w)
	}
	return r
}

// HealthOf scrapes the rolling health windows of the endpoint at addr
// (maxWindows <= 0 returns all); itv-admin's watch dashboard fans it out
// across the cluster.
func (e *Endpoint) HealthOf(addr string, maxWindows int) (*obs.HealthReport, error) {
	var out *obs.HealthReport
	err := e.Invoke(NodeRef(addr), "_health",
		func(enc *wire.Encoder) {
			if maxWindows > 0 {
				enc.PutUint(uint64(maxWindows))
			}
		},
		func(d *wire.Decoder) error {
			out = decodeHealth(d)
			return nil
		})
	return out, err
}
