// Package auth implements the authentication service (§3.3): a
// Kerberos-like scheme in which every principal (settop or service) shares
// a secret key with the authentication service, obtains tickets from it,
// and signs each call so the callee can securely determine the caller's
// identity.  By default calls are signed but not encrypted, which lets a
// server authenticate a customer without the overhead of encryption;
// helpers for sealing payloads cover the optional-encryption case.
//
// Trust model, simplified from Kerberos in one way: all servers share a
// realm key, so a single ticket (sealed under the realm key) admits a
// client to every service.  The structure exercised is identical — an
// unauthenticated ticket-granting exchange whose response is only usable by
// the holder of the principal's key, then per-call HMAC signatures under
// the ticket's session key.
package auth

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"itv/internal/clock"
	"itv/internal/wire"
)

// KeySize is the byte length of principal, session and realm keys.
const KeySize = 32

// DefaultTicketTTL is how long issued tickets remain valid.
const DefaultTicketTTL = 8 * time.Hour

// Errors reported by the auth layer.
var (
	ErrUnknownPrincipal = errors.New("auth: unknown principal")
	ErrBadTicket        = errors.New("auth: ticket unsealing failed")
	ErrExpiredTicket    = errors.New("auth: ticket expired")
	ErrBadSignature     = errors.New("auth: call signature mismatch")
)

// NewKey generates a fresh random key.
func NewKey() []byte {
	k := make([]byte, KeySize)
	if _, err := rand.Read(k); err != nil {
		panic("auth: entropy unavailable: " + err.Error())
	}
	return k
}

// Ticket is the credential sealed under the realm key.
type Ticket struct {
	Principal  string
	Expires    int64 // unix seconds
	SessionKey []byte
}

func (t *Ticket) MarshalWire(e *wire.Encoder) {
	e.PutString(t.Principal)
	e.PutInt(t.Expires)
	e.PutBytes(t.SessionKey)
}

func (t *Ticket) UnmarshalWire(d *wire.Decoder) {
	t.Principal = d.String()
	t.Expires = d.Int()
	t.SessionKey = d.Bytes()
}

// Seal encrypts plaintext under key with AES-256-GCM; Open reverses it.
// These are also the building blocks for optionally encrypted call bodies.
func Seal(key, plaintext []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return gcm.Seal(nonce, nonce, plaintext, nil), nil
}

// Open decrypts a Seal result.
func Open(key, sealed []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(sealed) < gcm.NonceSize() {
		return nil, ErrBadTicket
	}
	nonce, ct := sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():]
	pt, err := gcm.Open(nil, nonce, ct, nil)
	if err != nil {
		return nil, ErrBadTicket
	}
	return pt, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("auth: key must be %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// sign computes the per-call HMAC.
func sign(sessionKey, payload []byte) []byte {
	mac := hmac.New(sha256.New, sessionKey)
	mac.Write(payload)
	return mac.Sum(nil)
}

// Service is the authentication service state: the principal key registry
// and the realm key.  It is exported over the ORB by ServiceSkeleton.
type Service struct {
	clk      clock.Clock
	realmKey []byte

	mu         sync.Mutex
	principals map[string][]byte
}

// NewService creates an authentication service with a fresh realm key.
func NewService(clk clock.Clock) *Service {
	return &Service{
		clk:        clk,
		realmKey:   NewKey(),
		principals: make(map[string][]byte),
	}
}

// RealmKey returns the key shared by all servers; the cluster distributes
// it to services out of band (at process start, like a keytab).
func (s *Service) RealmKey() []byte { return s.realmKey }

// Enroll registers a principal and returns its fresh secret key.  In
// Orlando this happens at settop provisioning / service installation time.
func (s *Service) Enroll(principal string) []byte {
	key := NewKey()
	s.mu.Lock()
	s.principals[principal] = key
	s.mu.Unlock()
	return key
}

// Revoke removes a principal; future ticket requests fail.
func (s *Service) Revoke(principal string) {
	s.mu.Lock()
	delete(s.principals, principal)
	s.mu.Unlock()
}

// IssueTicket performs the ticket-granting exchange for principal.  It
// returns the ticket sealed under the realm key and the session key sealed
// under the principal's own key; only the legitimate principal can recover
// the session key, so the exchange itself needs no authentication.
func (s *Service) IssueTicket(principal string) (sealedTicket, sealedSessionKey []byte, err error) {
	s.mu.Lock()
	pkey, ok := s.principals[principal]
	s.mu.Unlock()
	if !ok {
		return nil, nil, ErrUnknownPrincipal
	}
	t := Ticket{
		Principal:  principal,
		Expires:    s.clk.Now().Add(DefaultTicketTTL).Unix(),
		SessionKey: NewKey(),
	}
	sealedTicket, err = Seal(s.realmKey, wire.Marshal(&t))
	if err != nil {
		return nil, nil, err
	}
	sealedSessionKey, err = Seal(pkey, t.SessionKey)
	if err != nil {
		return nil, nil, err
	}
	return sealedTicket, sealedSessionKey, nil
}
