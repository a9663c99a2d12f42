package gateway

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// maxBodyBytes bounds one request body; the largest legitimate payload
// is a credential list, far below this.
const maxBodyBytes = 1 << 20

// TokenRequest asks for role entry as token issuance (POST /v1/token).
// Creds carry role membership certificates previously issued by this
// or peer services; Delegation selects entry by election (§4.4).
type TokenRequest struct {
	Client     ids.ClientID     `json:"client"`
	Rolefile   string           `json:"rolefile,omitempty"`
	Role       string           `json:"role"`
	Args       []value.Value    `json:"args,omitempty"`
	Creds      []*cert.RMC      `json:"creds,omitempty"`
	Delegation *cert.Delegation `json:"delegation,omitempty"`
}

// TokenResponse is the issued token. ExpiresIn is derived from the
// RMC's own expiry (0 = the certificate does not expire); Cert is the
// underlying certificate so native-protocol peers can interoperate.
type TokenResponse struct {
	Token     string        `json:"access_token"`
	TokenType string        `json:"token_type"`
	ExpiresIn int64         `json:"expires_in,omitempty"`
	Issuer    string        `json:"issuer"`
	Rolefile  string        `json:"rolefile"`
	Roles     []string      `json:"roles"`
	Args      []value.Value `json:"args,omitempty"`
	Cert      *cert.RMC     `json:"cert,omitempty"`
}

// tokenType names the scheme in token responses.
const tokenType = "oasis"

// IntrospectRequest asks for the live status of a token
// (POST /v1/introspect).
type IntrospectRequest struct {
	Token string `json:"token"`
}

// IntrospectResponse reports a token's live status (RFC 7662 shape).
// Everything beyond Active is omitted for inactive tokens, so callers
// learn nothing about tokens they merely guess at.
type IntrospectResponse struct {
	Active   bool          `json:"active"`
	Issuer   string        `json:"issuer,omitempty"`
	Rolefile string        `json:"rolefile,omitempty"`
	Roles    []string      `json:"roles,omitempty"`
	Args     []value.Value `json:"args,omitempty"`
	Client   string        `json:"client,omitempty"`
	Exp      int64         `json:"exp,omitempty"`
	Iat      int64         `json:"iat,omitempty"`
}

// RevokeRequest revokes by one of three routes (POST /v1/revoke):
//   - Token: the token's own membership is revoked (RevokeHeld);
//   - Revocation: a signed revocation certificate kills a delegation
//     (Service.Revoke, §4.4);
//   - RevokerToken + Role (+ Args): role-based revocation — the caller
//     holds the revoker role and names the instance (RevokeByRole,
//     §4.11).
type RevokeRequest struct {
	Token        string           `json:"token,omitempty"`
	Revocation   *cert.Revocation `json:"revocation,omitempty"`
	RevokerToken string           `json:"revoker_token,omitempty"`
	Rolefile     string           `json:"rolefile,omitempty"`
	Role         string           `json:"role,omitempty"`
	Args         []value.Value    `json:"args,omitempty"`
}

// RevokeResponse acknowledges a revocation. Per RFC 7009 the endpoint
// is idempotent: revoking an already-revoked or unknown token is OK.
type RevokeResponse struct {
	OK bool `json:"ok"`
}

// ErrorResponse is the error envelope (OAuth shape).
type ErrorResponse struct {
	Err  string `json:"error"`
	Desc string `json:"error_description,omitempty"`
}

// writeJSON encodes v as the body, then sets the status. Encoding first
// means an encode failure can still become a 500 instead of a torn
// 200.
func (g *Gateway) writeJSON(out *reply, status int, v any) {
	buf := bytes.NewBuffer(out.body[:0])
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		out.httpError(http.StatusInternalServerError, `{"error":"server_error"}`)
		return
	}
	out.status, out.body = status, buf.Bytes()
}

func (g *Gateway) writeError(out *reply, status int, code, desc string) {
	g.writeJSON(out, status, ErrorResponse{Err: code, Desc: desc})
}

// ackRevoke acknowledges a revocation.
func ackRevoke(out *reply) {
	out.status = http.StatusOK
	out.body = appendRevokeResponse(out.body[:0], RevokeResponse{OK: true})
}

// decode reads one JSON value from the body into v: the body's bytes,
// then the error that ended them.
func decode(in *request, v any) error {
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(in.body), errReader{cmp.Or(in.err, io.EOF)}))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	return nil
}

// errReader is a reader that only fails.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// engineError maps an engine failure onto the HTTP error vocabulary: an
// issuer that did not answer in time is a 503 (the credential may be
// perfectly good), fraud is refused outright, everything else is an
// invalid grant.
func (g *Gateway) engineError(out *reply, err error) {
	if errors.Is(err, bus.ErrCallDeadline) {
		out.status = http.StatusServiceUnavailable
		out.body = append(out.body[:0], timeoutBody...)
		return
	}
	var verr *oasis.ValidationError
	if errors.As(err, &verr) {
		switch verr.Class {
		case oasis.Fraud:
			g.writeError(out, http.StatusForbidden, "access_denied", verr.Reason)
			return
		case oasis.Revoked, oasis.Erroneous:
			g.writeError(out, http.StatusBadRequest, "invalid_grant", verr.Reason)
			return
		}
	}
	g.writeError(out, http.StatusBadRequest, "invalid_request", err.Error())
}

// handleToken performs role entry and mints an opaque token bound to
// the issued certificate. It takes the bodies the scanner recognises
// through tokenRequest and appendTokenResponse, everything else through
// decode and writeJSON.
func (g *Gateway) handleToken(in *request, out *reply) {
	var req TokenRequest
	if !tokenRequest(in.body, &req) {
		var decoded TokenRequest // whatever a failed scan left in req is dropped
		if err := decode(in, &decoded); err != nil {
			g.writeError(out, http.StatusBadRequest, "invalid_request", err.Error())
			return
		}
		req = decoded
	}
	if req.Role == "" {
		g.writeError(out, http.StatusBadRequest, "invalid_request", "role is required")
		return
	}
	if req.Client.IsZero() {
		g.writeError(out, http.StatusBadRequest, "invalid_request", "client identity is required")
		return
	}
	rmc, err := g.svc.Enter(oasis.EnterRequest{
		Client:     req.Client,
		Rolefile:   req.Rolefile,
		Role:       req.Role,
		Args:       req.Args,
		Creds:      req.Creds,
		Delegation: req.Delegation,
	})
	if err != nil {
		g.engineError(out, err)
		return
	}
	now := g.clk.Now()
	id, err := g.tokens.mint(rmc, now, g.svc.Store())
	if err != nil {
		g.writeError(out, http.StatusInternalServerError, "server_error", err.Error())
		return
	}
	res := TokenResponse{
		Token:     id,
		TokenType: tokenType,
		Issuer:    g.svc.Name(),
		Rolefile:  rmc.Rolefile,
		Roles:     g.svc.RoleNames(rmc),
		Args:      rmc.Args,
		Cert:      rmc,
	}
	if !rmc.Expiry.IsZero() {
		res.ExpiresIn = int64(rmc.Expiry.Sub(now) / time.Second)
	}
	body, ok := appendTokenResponse(out.body[:0], &res)
	if !ok {
		g.writeJSON(out, http.StatusOK, res)
		return
	}
	out.status, out.body = http.StatusOK, body
}

// handleIntrospect answers a token's status live from the credential
// record store: a revocation cascade that lands between two
// introspections flips the answer with no gateway-side invalidation. A
// token-table read plus Service.ValidateHeld of a certificate this
// service issued never leaves the process, so there is nothing to wait
// for. It takes the canonical body through canonicalToken and
// appendIntrospectResponse, everything else through decode.
func (g *Gateway) handleIntrospect(in *request, out *reply) {
	tok, ok := canonicalToken(in.body)
	if !ok {
		var req IntrospectRequest
		if err := decode(in, &req); err != nil {
			g.writeError(out, http.StatusBadRequest, "invalid_request", err.Error())
			return
		}
		if req.Token == "" {
			g.writeError(out, http.StatusBadRequest, "invalid_request", "token is required")
			return
		}
		tok = []byte(req.Token)
	}
	res := g.introspect(tok)
	out.status = http.StatusOK
	out.body = appendIntrospectResponse(out.body[:0], &res)
}

// introspect is the live answer for one token. The gateway keeps no
// validity of its own: the next call asks the engine again, which
// checks expiry and the credential record every time and the
// signature once per signer epoch (Service.ValidateHeld).
func (g *Gateway) introspect(tok []byte) IntrospectResponse {
	rec, ok := g.tokens.lookup(tok)
	if !ok {
		return IntrospectResponse{}
	}
	c := rec.held.Cert()
	if !c.Expiry.IsZero() && g.clk.Now().After(c.Expiry) {
		// Expired: the engine would refuse it too; drop our record so
		// the table does not accrete dead tokens.
		g.tokens.remove(string(tok))
		return IntrospectResponse{}
	}
	if err := g.svc.ValidateHeld(rec.held); err != nil {
		// Revoked for good — directly or by a cascade — is as final as
		// expired, and so is a secret rolled out. A fail-safe demotion
		// is not permanent and must keep the token: the same token is
		// active again after resync.
		if rolledOut(err) || alreadyDead(g.svc.Store(), c.CRR) {
			g.tokens.remove(string(tok))
		}
		return IntrospectResponse{}
	}
	res := IntrospectResponse{
		Active:   true,
		Issuer:   g.svc.Name(),
		Rolefile: c.Rolefile,
		Roles:    g.svc.RoleNames(c),
		Args:     c.Args,
		Client:   c.Client.String(),
		Iat:      rec.issued.Unix(),
	}
	if !c.Expiry.IsZero() {
		res.Exp = c.Expiry.Unix()
	}
	return res
}

// handleRevoke routes a revocation through the engine. RFC 7009
// semantics: unknown and already-revoked tokens acknowledge with 200 —
// the caller's goal (the token is dead) already holds.
func (g *Gateway) handleRevoke(in *request, out *reply) {
	if tok, ok := canonicalToken(in.body); ok {
		g.revokeToken(out, tok)
		return
	}
	var req RevokeRequest
	if err := decode(in, &req); err != nil {
		g.writeError(out, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	switch {
	case req.Revocation != nil:
		g.revokeByCertificate(out, req.Revocation)
	case req.RevokerToken != "":
		g.revokeByRole(out, req)
	case req.Token != "":
		g.revokeToken(out, []byte(req.Token))
	default:
		g.writeError(out, http.StatusBadRequest, "invalid_request",
			"one of token, revocation, revoker_token is required")
	}
}

// revokeToken invalidates the membership behind a token. A token whose
// secret has rolled out is already invalid: RFC 7009 §2.2 acknowledges
// it, and its credential record, which may back other certificates,
// is left alone.
func (g *Gateway) revokeToken(out *reply, tok []byte) {
	rec, ok := g.tokens.lookup(tok)
	if !ok {
		ackRevoke(out)
		return
	}
	if !alreadyDead(g.svc.Store(), rec.held.Cert().CRR) {
		if err := g.svc.RevokeHeld(rec.held); err != nil && !rolledOut(err) {
			g.engineError(out, err)
			return
		}
	}
	g.tokens.remove(string(tok))
	ackRevoke(out)
}

// revokeByCertificate honours a signed revocation certificate (§4.4).
func (g *Gateway) revokeByCertificate(out *reply, rev *cert.Revocation) {
	if !alreadyDead(g.svc.Store(), rev.TargetCRR) {
		if err := g.svc.Revoke(rev); err != nil {
			g.engineError(out, err)
			return
		}
	}
	ackRevoke(out)
}

// revokeByRole performs role-based revocation: the revoker's token
// stands in for their certificate.
func (g *Gateway) revokeByRole(out *reply, req RevokeRequest) {
	rec, ok := g.tokens.lookup([]byte(req.RevokerToken))
	if !ok {
		g.writeError(out, http.StatusForbidden, "access_denied", "unknown revoker token")
		return
	}
	if req.Role == "" {
		g.writeError(out, http.StatusBadRequest, "invalid_request", "role is required")
		return
	}
	// The revoker's certificate is presented, not held: it is the
	// credential the caller acts under.
	revoker := rec.held.Cert()
	err := g.svc.RevokeByRole(revoker, revoker.Client, req.Rolefile, req.Role, req.Args)
	if err != nil {
		var verr *oasis.ValidationError
		// Idempotency: the named instance being gone already means the
		// caller's goal holds. A permissions failure still refuses.
		if errors.As(err, &verr) && verr.Class == oasis.Erroneous &&
			g.svc.InstanceRevoked(req.Rolefile, req.Role, req.Args) {
			ackRevoke(out)
			return
		}
		g.engineError(out, err)
		return
	}
	ackRevoke(out)
}

// rolledOut reports a held certificate's Fraud verdict: no client sends
// its bytes, so it cannot be forged or stolen, and a signature that no
// longer verifies means the secret it was signed with has rolled out
// (§5.5.1) — as final as a record revoked for good.
func rolledOut(err error) bool {
	var verr *oasis.ValidationError
	return errors.As(err, &verr) && verr.Class == oasis.Fraud
}

// alreadyDead reports a credential record that is deleted or
// permanently false — i.e. revocation already happened and may even
// have been swept.
func alreadyDead(store credrec.Recorder, ref credrec.Ref) bool {
	st, perm, err := store.Resolve(ref)
	return err != nil || (st == credrec.False && perm)
}
