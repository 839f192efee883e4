package argo

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/httpkit"
)

// HTTP transport: the same gateway semantics over a socket, so a generation
// campaign can talk to a shared proxy process exactly as the paper's Parsl
// workers talk to Argo-Proxy. The wire format is JSON:
//
//	POST /v1/batch   {"requests":[{id,op,payload}...]}
//	200              {"responses":[{id,payload,err,retry}...]}
//	GET  /healthz    200 "ok"

type batchEnvelope struct {
	Requests []Request `json:"requests"`
}

type responseEnvelope struct {
	Responses []Response `json:"responses"`
}

// Server exposes a BatchHandler over HTTP.
type Server struct {
	handler BatchHandler
	httpSrv *http.Server
	addr    string
}

// NewServer creates a server on addr ("127.0.0.1:0" for an ephemeral port).
func NewServer(addr string, handler BatchHandler) (*Server, error) {
	s := &Server{handler: handler}
	var err error
	s.httpSrv, s.addr, err = httpkit.Start(addr, s.routes)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/batch", s.serveBatch)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.addr }

// Shutdown drains the server gracefully: the listener stops accepting new
// connections immediately, but requests already being handled run to
// completion (or until ctx expires, whichever is first). This is the
// SIGTERM drain pattern the serve layer's ragserve binary reuses.
func (s *Server) Shutdown(ctx context.Context) error {
	return httpkit.Shutdown(ctx, s.httpSrv)
}

// Close shuts the server down, giving in-flight requests a bounded drain
// window rather than dropping them.
func (s *Server) Close() error { return httpkit.Close(s.Shutdown) }

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var env batchEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		http.Error(w, "bad envelope: "+err.Error(), http.StatusBadRequest)
		return
	}
	httpkit.WriteJSON(w, responseEnvelope{Responses: s.handler(r.Context(), env.Requests)})
}

// HTTPHandler returns a BatchHandler that forwards batches to a remote
// server, letting a Gateway front a network endpoint:
//
//	gw := NewGateway(cfg, HTTPHandler(url, nil))
func HTTPHandler(baseURL string, client *http.Client) BatchHandler {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return func(ctx context.Context, batch []Request) []Response {
		fail := func(msg string, retry bool) []Response {
			out := make([]Response, len(batch))
			for i, req := range batch {
				out[i] = Response{ID: req.ID, Err: msg, Retry: retry}
			}
			return out
		}
		body, err := json.Marshal(batchEnvelope{Requests: batch})
		if err != nil {
			return fail("encode: "+err.Error(), false)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			return fail("request: "+err.Error(), false)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			// Network errors are transient from the campaign's view.
			return fail("transport: "+err.Error(), true)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fail(fmt.Sprintf("status %d", resp.StatusCode), resp.StatusCode >= 500)
		}
		var env responseEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return fail("decode: "+err.Error(), true)
		}
		return env.Responses
	}
}
