package cmgr

import (
	"sort"
	"time"

	"itv/internal/wire"
)

// Resource accounting — the second half of §7.3, which the paper leaves as
// future work: "accounting is needed both for discovering buggy clients
// and for charging properly for resource usage.  We currently do not
// attempt to do resource accounting."  This implements it: the Connection
// Manager records, per settop, how many connections it opened, how many
// requests were denied at the resource limit, and the bandwidth-time it
// consumed — the inputs for both billing and buggy-client detection.

// Usage is one settop's accounted consumption.
type Usage struct {
	Settop string
	// Opened counts admitted connections over the settop's lifetime.
	Opened int64
	// Denied counts requests refused at the §7.3 resource limit — the
	// buggy-client signal.
	Denied int64
	// MbitSeconds is consumed bandwidth-time (megabit-seconds), the
	// charging quantity.
	MbitSeconds float64
}

func (u *Usage) MarshalWire(e *wire.Encoder) {
	e.PutString(u.Settop)
	e.PutInt(u.Opened)
	e.PutInt(u.Denied)
	e.PutFloat(u.MbitSeconds)
}

func (u *Usage) UnmarshalWire(d *wire.Decoder) {
	u.Settop = d.String()
	u.Opened = d.Int()
	u.Denied = d.Int()
	u.MbitSeconds = d.Float()
}

// account records an admitted connection.
func (s *Service) accountOpen(settop string) {
	rec := s.usage[settop]
	if rec == nil {
		rec = &Usage{Settop: settop}
		s.usage[settop] = rec
	}
	rec.Opened++
}

// accountDenied records a refusal at the resource limit.
func (s *Service) accountDenied(settop string) {
	rec := s.usage[settop]
	if rec == nil {
		rec = &Usage{Settop: settop}
		s.usage[settop] = rec
	}
	rec.Denied++
}

// accountClose charges the connection's bandwidth-time.
func (s *Service) accountClose(a Alloc, opened time.Time) {
	rec := s.usage[a.Settop]
	if rec == nil {
		rec = &Usage{Settop: a.Settop}
		s.usage[a.Settop] = rec
	}
	seconds := s.sess.Clk.Now().Sub(opened).Seconds()
	if seconds < 0 {
		seconds = 0
	}
	rec.MbitSeconds += float64(a.Rate) * seconds / 1e6
}

// UsageReport returns per-settop accounting, sorted by settop.
func (s *Service) UsageReport() []Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Usage, 0, len(s.usage))
	for _, rec := range s.usage {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Settop < out[j].Settop })
	return out
}

// Suspects returns settops whose denied-request count reached the
// threshold — candidates for the buggy-client investigation §7.3 hopes
// catches applications "before [they are] allowed onto a production
// network".
func (s *Service) Suspects(deniedThreshold int64) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for settop, rec := range s.usage {
		if rec.Denied >= deniedThreshold {
			out = append(out, settop)
		}
	}
	sort.Strings(out)
	return out
}

// UsageOf fetches one settop's record.
func (s *Service) UsageOf(settop string) Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec := s.usage[settop]; rec != nil {
		return *rec
	}
	return Usage{Settop: settop}
}

// minUsageBytes is the least a usage record occupies on the wire: an empty
// string, two one-byte numbers and a float.
const minUsageBytes = 11

// Usage (stub): fetch the accounting table from a replica.
func (st Stub) Usage() ([]Usage, error) {
	var out []Usage
	err := st.Ep.Invoke(st.Ref, "usage", nil,
		func(d *wire.Decoder) error { out = getUsages(d); return nil })
	return out, err
}

func getUsages(d *wire.Decoder) []Usage {
	n := d.CountOf(minUsageBytes)
	out := make([]Usage, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var u Usage
		u.UnmarshalWire(d)
		out = append(out, u)
	}
	return out
}
