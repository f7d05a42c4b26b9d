// Package db implements the database service (§3.3): persistent data
// exported through an IDL interface.  The CSC reads its static service
// configuration from here (§6.2), services store slow-changing state here
// and re-read it when a replica starts (§9.4), and applications (home
// shopping) keep their records here.
//
// The store is a set of named tables of string key/value pairs, backed by
// an optional append-only log so state survives process restarts.  It is
// intentionally modest: the paper's point is that most services can keep
// their durable state in a database and rebuild everything else, not that
// the database is sophisticated.
package db

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// WellKnownPort is the database service's fixed port.
const WellKnownPort = 560

// TypeID is the IDL interface name.
const TypeID = "itv.Database"

// Store is the database state.
type Store struct {
	mu     sync.Mutex
	tables map[string]map[string]string
	log    *os.File // nil for a memory-only store
}

// NewStore opens a store backed by the append-only log at path, replaying
// it if it exists.  An empty path yields a memory-only store.
func NewStore(path string) (*Store, error) {
	s := &Store{tables: make(map[string]map[string]string)}
	if path == "" {
		return s, nil
	}
	if data, err := os.ReadFile(path); err == nil {
		if err := s.replay(data); err != nil {
			return nil, fmt.Errorf("db: corrupt log %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.log = f
	return s, nil
}

const (
	logPut uint64 = iota
	logDelete
)

func (s *Store) replay(data []byte) error {
	var d wire.Decoder
	d.Reset(data)
	for d.Remaining() > 0 {
		op := d.Uint()
		table := d.String()
		key := d.String()
		val := d.String()
		if d.Err() != nil {
			return d.Err()
		}
		switch op {
		case logPut:
			s.putLocked(table, key, val)
		case logDelete:
			s.deleteLocked(table, key)
		default:
			return fmt.Errorf("unknown op %d", op)
		}
	}
	return nil
}

func (s *Store) appendLog(op uint64, table, key, val string) {
	if s.log == nil {
		return
	}
	e := wire.GetEncoder()
	e.PutUint(op)
	e.PutString(table)
	e.PutString(key)
	e.PutString(val)
	_, _ = s.log.Write(e.Bytes())
	wire.PutEncoder(e)
}

func (s *Store) putLocked(table, key, val string) {
	t, ok := s.tables[table]
	if !ok {
		t = make(map[string]string)
		s.tables[table] = t
	}
	t[key] = val
}

func (s *Store) deleteLocked(table, key string) {
	if t, ok := s.tables[table]; ok {
		delete(t, key)
		if len(t) == 0 {
			delete(s.tables, table)
		}
	}
}

// Put stores a value.
func (s *Store) Put(table, key, val string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(table, key, val)
	s.appendLog(logPut, table, key, val)
}

// Get fetches a value; ok reports presence.
func (s *Store) Get(table, key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok {
		return "", false
	}
	v, ok := t[key]
	return v, ok
}

// Delete removes a key.
func (s *Store) Delete(table, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deleteLocked(table, key)
	s.appendLog(logDelete, table, key, "")
}

// Keys lists a table's keys, sorted.
func (s *Store) Keys(table string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[table]
	out := make([]string, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// All returns a copy of a table.
func (s *Store) All(table string) map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.tables[table]))
	for k, v := range s.tables[table] {
		out[k] = v
	}
	return out
}

// Close flushes and closes the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// Service exports a Store over the ORB.
type Service struct {
	Store *Store
	ep    *orb.Endpoint
}

// New starts the database service on tr's host.
func New(tr transport.Transport, store *Store) (*Service, error) {
	ep, err := orb.NewEndpointOn(tr, WellKnownPort)
	if err != nil {
		return nil, err
	}
	s := &Service{Store: store, ep: ep}
	ep.Register("", &skel{s: store})
	return s, nil
}

// Ref returns the service's persistent reference.
func (s *Service) Ref() oref.Ref { return oref.Persistent(s.ep.Addr(), TypeID, "") }

// Endpoint exposes the service's endpoint (authenticator wiring).
func (s *Service) Endpoint() *orb.Endpoint { return s.ep }

// RefAt returns the database reference for the server at host.
func RefAt(host string) oref.Ref {
	return oref.Persistent(fmt.Sprintf("%s:%d", host, WellKnownPort), TypeID, "")
}

// Close stops the service (the store persists independently).
func (s *Service) Close() { s.ep.Close() }

type skel struct{ s *Store }

func (k *skel) TypeID() string { return TypeID }

func (k *skel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "get":
		table, key := c.Args().String(), c.Args().String()
		v, ok := k.s.Get(table, key)
		c.Results().PutBool(ok)
		c.Results().PutString(v)
		return nil
	case "put":
		table, key, val := c.Args().String(), c.Args().String(), c.Args().String()
		k.s.Put(table, key, val)
		return nil
	case "delete":
		table, key := c.Args().String(), c.Args().String()
		k.s.Delete(table, key)
		return nil
	case "keys":
		c.Results().PutStrings(k.s.Keys(c.Args().String()))
		return nil
	case "all":
		c.Results().PutStringMap(k.s.All(c.Args().String()))
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// Stub is the database client proxy.
type Stub struct {
	Ep  *orb.Endpoint
	Ref oref.Ref
}

// Get fetches a value.
func (s Stub) Get(table, key string) (string, bool, error) {
	var v string
	var ok bool
	err := s.Ep.Invoke(s.Ref, "get",
		func(e *wire.Encoder) { e.PutString(table); e.PutString(key) },
		func(d *wire.Decoder) error { ok = d.Bool(); v = d.String(); return nil })
	return v, ok, err
}

// Put stores a value.
func (s Stub) Put(table, key, val string) error {
	return s.Ep.Invoke(s.Ref, "put",
		func(e *wire.Encoder) { e.PutString(table); e.PutString(key); e.PutString(val) }, nil)
}

// Delete removes a key.
func (s Stub) Delete(table, key string) error {
	return s.Ep.Invoke(s.Ref, "delete",
		func(e *wire.Encoder) { e.PutString(table); e.PutString(key) }, nil)
}

// Keys lists a table's keys.
func (s Stub) Keys(table string) ([]string, error) {
	var out []string
	err := s.Ep.Invoke(s.Ref, "keys",
		func(e *wire.Encoder) { e.PutString(table) },
		func(d *wire.Decoder) error { out = d.Strings(); return nil })
	return out, err
}

// All returns a table copy.
func (s Stub) All(table string) (map[string]string, error) {
	var out map[string]string
	err := s.Ep.Invoke(s.Ref, "all",
		func(e *wire.Encoder) { e.PutString(table) },
		func(d *wire.Decoder) error { out = d.StringMap(); return nil })
	return out, err
}
