package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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

// jsonContentType is the one Content-Type value, shared by every
// response: net/http reads header values and never writes to them.
var jsonContentType = []string{"application/json"}

// respond writes one complete JSON body. The framing is explicit:
// net/http only infers Content-Length while a body fits its 2 KiB
// pre-chunking buffer, and a token response carrying a certificate
// with long arguments does not. A body-write failure means the client
// is gone — the only way a ResponseWriter.Write error can be "handled"
// is to account for it.
func (g *Gateway) respond(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		g.droppedWrites.Add(1)
	}
}

// writeJSON encodes v, then writes status and body. Encoding first
// means an encode failure can still become a 500 instead of a torn
// 200.
func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	bp := getBuf()
	defer putBuf(bp)
	*bp = (*bp)[:0]
	if err := json.NewEncoder((*appendWriter)(bp)).Encode(v); err != nil {
		http.Error(w, `{"error":"server_error"}`, http.StatusInternalServerError)
		return
	}
	g.respond(w, status, *bp)
}

// appendWriter lets an encoder append to a pooled buffer.
type appendWriter []byte

func (a *appendWriter) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}

func (g *Gateway) writeError(w http.ResponseWriter, status int, code, desc string) {
	g.writeJSON(w, status, ErrorResponse{Err: code, Desc: desc})
}

// ackRevoke acknowledges a revocation, rendering into scratch.
func (g *Gateway) ackRevoke(w http.ResponseWriter, scratch []byte) {
	g.respond(w, http.StatusOK, appendRevokeResponse(scratch, RevokeResponse{OK: true}))
}

// retryAfter sets the Retry-After header, rounded up to whole seconds
// (the header's granularity).
func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// decode reads one bounded JSON body into v.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	return nil
}

// engineError maps an engine failure onto the HTTP error vocabulary: an
// issuer that did not answer in time is a 503 (the credential may be
// perfectly good), fraud is refused outright, everything else is an
// invalid grant.
func (g *Gateway) engineError(w http.ResponseWriter, err error) {
	if errors.Is(err, bus.ErrCallDeadline) {
		g.respond(w, http.StatusServiceUnavailable, []byte(timeoutBody))
		return
	}
	var verr *oasis.ValidationError
	if errors.As(err, &verr) {
		switch verr.Class {
		case oasis.Fraud:
			g.writeError(w, http.StatusForbidden, "access_denied", verr.Reason)
			return
		case oasis.Revoked, oasis.Erroneous:
			g.writeError(w, http.StatusBadRequest, "invalid_grant", verr.Reason)
			return
		}
	}
	g.writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
}

// handleToken performs role entry and mints an opaque token bound to
// the issued certificate. It takes the bodies the scanner recognises
// through readBody and appendTokenResponse, everything else through
// decode and writeJSON.
func (g *Gateway) handleToken(w http.ResponseWriter, r *http.Request) {
	bp := getBuf()
	defer putBuf(bp)
	var req TokenRequest
	if !readBody(r, bp, func(body []byte) bool { return tokenRequest(body, &req) }) {
		var decoded TokenRequest // whatever a failed scan left in req is dropped
		if err := decode(w, r, &decoded); err != nil {
			g.writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
			return
		}
		req = decoded
	}
	if req.Role == "" {
		g.writeError(w, http.StatusBadRequest, "invalid_request", "role is required")
		return
	}
	if req.Client.IsZero() {
		g.writeError(w, http.StatusBadRequest, "invalid_request", "client identity is required")
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
		g.engineError(w, err)
		return
	}
	now := g.clk.Now()
	id, err := g.tokens.mint(rmc, now, g.svc.Store())
	if err != nil {
		g.writeError(w, http.StatusInternalServerError, "server_error", err.Error())
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
	// Nothing of the request aliases the buffer: render over it.
	body, ok := appendTokenResponse((*bp)[:0], &res)
	*bp = body
	if !ok {
		g.writeJSON(w, http.StatusOK, res)
		return
	}
	g.respond(w, http.StatusOK, body)
}

// handleIntrospect answers a token's status live from the credential
// record store: a revocation cascade that lands between two
// introspections flips the answer with no gateway-side invalidation. A
// token-table read plus Service.ValidateHeld of a certificate this
// service issued never leaves the process, so there is nothing to wait
// for. It takes the canonical body through readBody and
// appendIntrospectResponse, everything else through decode.
func (g *Gateway) handleIntrospect(w http.ResponseWriter, r *http.Request) {
	bp := getBuf()
	defer putBuf(bp)
	tok, ok := readToken(r, bp)
	if !ok {
		var req IntrospectRequest
		if err := decode(w, r, &req); err != nil {
			g.writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
			return
		}
		if req.Token == "" {
			g.writeError(w, http.StatusBadRequest, "invalid_request", "token is required")
			return
		}
		tok = []byte(req.Token)
	}
	res := g.introspect(tok)
	n := len(*bp)
	*bp = appendIntrospectResponse(*bp, &res)
	g.respond(w, http.StatusOK, (*bp)[n:])
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
func (g *Gateway) handleRevoke(w http.ResponseWriter, r *http.Request) {
	bp := getBuf()
	defer putBuf(bp)
	tok, ok := readToken(r, bp)
	scratch := (*bp)[len(*bp):]
	if ok {
		g.revokeToken(w, tok, scratch)
		return
	}
	var req RevokeRequest
	if err := decode(w, r, &req); err != nil {
		g.writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	switch {
	case req.Revocation != nil:
		g.revokeByCertificate(w, req.Revocation, scratch)
	case req.RevokerToken != "":
		g.revokeByRole(w, req, scratch)
	case req.Token != "":
		g.revokeToken(w, []byte(req.Token), scratch)
	default:
		g.writeError(w, http.StatusBadRequest, "invalid_request",
			"one of token, revocation, revoker_token is required")
	}
}

// revokeToken invalidates the membership behind a token. A token whose
// secret has rolled out is already invalid: RFC 7009 §2.2 acknowledges
// it, and its credential record, which may back other certificates,
// is left alone.
func (g *Gateway) revokeToken(w http.ResponseWriter, tok, scratch []byte) {
	rec, ok := g.tokens.lookup(tok)
	if !ok {
		g.ackRevoke(w, scratch)
		return
	}
	if !alreadyDead(g.svc.Store(), rec.held.Cert().CRR) {
		if err := g.svc.RevokeHeld(rec.held); err != nil && !rolledOut(err) {
			g.engineError(w, err)
			return
		}
	}
	g.tokens.remove(string(tok))
	g.ackRevoke(w, scratch)
}

// revokeByCertificate honours a signed revocation certificate (§4.4).
func (g *Gateway) revokeByCertificate(w http.ResponseWriter, rev *cert.Revocation, scratch []byte) {
	if !alreadyDead(g.svc.Store(), rev.TargetCRR) {
		if err := g.svc.Revoke(rev); err != nil {
			g.engineError(w, err)
			return
		}
	}
	g.ackRevoke(w, scratch)
}

// revokeByRole performs role-based revocation: the revoker's token
// stands in for their certificate.
func (g *Gateway) revokeByRole(w http.ResponseWriter, req RevokeRequest, scratch []byte) {
	rec, ok := g.tokens.lookup([]byte(req.RevokerToken))
	if !ok {
		g.writeError(w, http.StatusForbidden, "access_denied", "unknown revoker token")
		return
	}
	if req.Role == "" {
		g.writeError(w, http.StatusBadRequest, "invalid_request", "role is required")
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
			g.ackRevoke(w, scratch)
			return
		}
		g.engineError(w, err)
		return
	}
	g.ackRevoke(w, scratch)
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
