package media

import (
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// skel is the MDS service skeleton.
type skel struct{ s *Service }

func (k *skel) TypeID() string { return TypeID }

func (k *skel) Dispatch(c *orb.ServerCall) error {
	s := k.s
	switch c.Method() {
	case "open":
		title := DecodeTitle(c.Args())
		settop := c.Args().String()
		connID := c.Args().String()
		ref, id, err := s.Open(title, settop, connID)
		if err != nil {
			return err
		}
		ref.MarshalWire(c.Results())
		c.Results().PutString(id)
		return nil
	case "closeMovie":
		return s.CloseMovie(c.Args().String())
	case "probe":
		info, ok, load := s.Probe(DecodeTitle(c.Args()))
		c.Results().PutBool(ok)
		info.MarshalWire(c.Results())
		c.Results().PutInt(int64(load))
		return nil
	case "openMovies":
		movies := s.OpenMovies()
		e := c.Results()
		e.PutUint(uint64(len(movies)))
		for i := range movies {
			movies[i].MarshalWire(e)
		}
		return nil
	case "titles":
		c.Results().PutStrings(s.Titles())
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// movieSkel is the per-open-movie object skeleton.
type movieSkel struct {
	s  *Service
	id string
}

func (k *movieSkel) TypeID() string { return TypeMovie }

func (k *movieSkel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "play":
		return k.s.Play(k.id, c.Args().Int())
	case "pause":
		return k.s.Pause(k.id)
	case "position":
		pos, playing, err := k.s.Position(k.id)
		if err != nil {
			return err
		}
		c.Results().PutInt(pos)
		c.Results().PutBool(playing)
		return nil
	case "info":
		info, err := k.s.Info(k.id)
		if err != nil {
			return err
		}
		info.MarshalWire(c.Results())
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// Stub is the client proxy for an MDS replica.
type Stub struct {
	Ep  *orb.Endpoint
	Ref oref.Ref
}

// Open asks the MDS to open a movie over connID for the settop.
func (s Stub) Open(title, settop, connID string) (oref.Ref, string, error) {
	var ref oref.Ref
	var id string
	err := s.Ep.Invoke(s.Ref, "open",
		func(e *wire.Encoder) {
			e.PutString(title)
			e.PutString(settop)
			e.PutString(connID)
		},
		func(d *wire.Decoder) error {
			ref.UnmarshalWire(d)
			id = d.String()
			return nil
		})
	return ref, id, err
}

// CloseMovie tears down an open movie.
func (s Stub) CloseMovie(id string) error {
	return s.Ep.Invoke(s.Ref, "closeMovie",
		func(e *wire.Encoder) { e.PutString(id) }, nil)
}

// Probe asks the replica, in one call, everything the MMS weighs when it
// places an open: whether it stores the title (and its catalog record) and
// how many movies it has open.
func (s Stub) Probe(title string) (MovieInfo, bool, int, error) {
	var info MovieInfo
	var ok bool
	var load int64
	err := s.Ep.Invoke(s.Ref, "probe",
		func(e *wire.Encoder) { e.PutString(title) },
		func(d *wire.Decoder) error {
			ok = d.Bool()
			info.UnmarshalWire(d)
			load = d.Int()
			return nil
		})
	return info, ok, int(load), err
}

// minOpenMovieBytes is the least an open-movie record occupies on the
// wire: four empty strings.
const minOpenMovieBytes = 4

// OpenMovies fetches the open-movie records.
func (s Stub) OpenMovies() ([]OpenMovie, error) {
	var out []OpenMovie
	err := s.Ep.Invoke(s.Ref, "openMovies", nil,
		func(d *wire.Decoder) error { out = decodeOpenMovies(d); return nil })
	return out, err
}

func decodeOpenMovies(d *wire.Decoder) []OpenMovie {
	n := d.CountOf(minOpenMovieBytes)
	out := make([]OpenMovie, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var o OpenMovie
		o.UnmarshalWire(d)
		out = append(out, o)
	}
	return out
}

// Titles fetches the catalog.
func (s Stub) Titles() ([]string, error) {
	var out []string
	err := s.Ep.Invoke(s.Ref, "titles", nil,
		func(d *wire.Decoder) error { out = d.Strings(); return nil })
	return out, err
}

// Movie is the client proxy for an open movie object.
type Movie struct {
	Ep  *orb.Endpoint
	Ref oref.Ref
}

// Play starts or resumes delivery; offset < 0 resumes in place.
func (m Movie) Play(offset int64) error {
	return m.Ep.Invoke(m.Ref, "play",
		func(e *wire.Encoder) { e.PutInt(offset) }, nil)
}

// Pause suspends delivery.
func (m Movie) Pause() error {
	return m.Ep.Invoke(m.Ref, "pause", nil, nil)
}

// Position reports the byte position and delivery state; a dead reference
// here is how an application detects an MDS crash (§3.5.2: "the
// application detects the failure when it stops receiving data").
func (m Movie) Position() (int64, bool, error) {
	var pos int64
	var playing bool
	err := m.Ep.Invoke(m.Ref, "position", nil,
		func(d *wire.Decoder) error {
			pos = d.Int()
			playing = d.Bool()
			return nil
		})
	return pos, playing, err
}

// Info fetches the movie's catalog record.
func (m Movie) Info() (MovieInfo, error) {
	var info MovieInfo
	err := m.Ep.Invoke(m.Ref, "info", nil,
		func(d *wire.Decoder) error { info.UnmarshalWire(d); return nil })
	return info, err
}
