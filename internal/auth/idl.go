package auth

import (
	"crypto/hmac"

	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// TypeID is the IDL interface name of the authentication service.
const TypeID = "itv.Auth"

func unmarshalTicket(buf []byte, t *Ticket) error { return wire.Unmarshal(buf, t) }

func hmacEqual(a, b []byte) bool { return hmac.Equal(a, b) }

// ServiceSkeleton exports a Service over the ORB.  The endpoint hosting it
// should use a Verifier with AllowAnonymous so the ticket exchange can
// bootstrap.
type ServiceSkeleton struct {
	Svc *Service
}

// TypeID implements orb.Skeleton.
func (s *ServiceSkeleton) TypeID() string { return TypeID }

// Dispatch implements orb.Skeleton.
func (s *ServiceSkeleton) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "issueTicket":
		principal := c.Args().String()
		ticket, sessionKey, err := s.Svc.IssueTicket(principal)
		if err != nil {
			return orb.Errf(orb.ExcDenied, "%v", err)
		}
		c.Results().PutBytes(ticket)
		c.Results().PutBytes(sessionKey)
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// Stub is the client-side proxy for the authentication service.
type Stub struct {
	Ep  *orb.Endpoint
	Ref oref.Ref
}

// IssueTicket invokes the ticket-granting exchange.
func (s *Stub) IssueTicket(principal string) (sealedTicket, sealedSessionKey []byte, err error) {
	err = s.Ep.Invoke(s.Ref, "issueTicket",
		func(e *wire.Encoder) { e.PutString(principal) },
		func(d *wire.Decoder) error {
			sealedTicket = d.Bytes()
			sealedSessionKey = d.Bytes()
			return nil
		})
	return sealedTicket, sealedSessionKey, err
}
