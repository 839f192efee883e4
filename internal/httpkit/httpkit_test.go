package httpkit

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestDecodeAcceptsBodyWithinLimit(t *testing.T) {
	var errs metrics.Counter
	var dst struct{ Query string }
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"Query":"q"}`))
	if !Decode(w, r, &errs, &dst) || dst.Query != "q" {
		t.Fatalf("Decode = false or dst %+v, want Query q", dst)
	}
	if errs.Value() != 0 {
		t.Fatalf("error counter %d after a good body", errs.Value())
	}
}

func TestDecodeRejectsOversizeBody(t *testing.T) {
	// A JSON string one byte past the cap: valid JSON in full, so only the
	// 16 MiB cut can make it fail.
	body := `"` + strings.Repeat("a", maxRequestBytes) + `"`
	var errs metrics.Counter
	var dst string
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
	if Decode(w, r, &errs, &dst) {
		t.Fatal("Decode accepted a body over 16 MiB")
	}
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if errs.Value() != 1 {
		t.Fatalf("error counter %d, want 1", errs.Value())
	}
}

func TestWriteJSONSetsContentType(t *testing.T) {
	w := httptest.NewRecorder()
	WriteJSON(w, map[string]int{"n": 3})
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var got map[string]int
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || got["n"] != 3 {
		t.Fatalf("body %q does not round-trip: %v", w.Body.String(), err)
	}
}

func TestStartOnBusyAddressFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	built := false
	srv, addr, err := Start(ln.Addr().String(), func() http.Handler {
		built = true
		return http.NotFoundHandler()
	})
	if err == nil {
		Shutdown(context.Background(), srv) //nolint:errcheck // test cleanup
		t.Fatalf("Start on busy %s bound %s, want an error", ln.Addr(), addr)
	}
	if built {
		t.Fatal("Start called the handler constructor after a failed bind")
	}
}

func TestCloseDrainsInFlightRequest(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv, addr, err := Start("127.0.0.1:0", func() http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
			io.WriteString(w, "done") //nolint:errcheck // test handler
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		body   string
		err    error
	}
	replies := make(chan reply, 1)
	go func() {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://"+addr+"/", nil)
		if err != nil {
			replies <- reply{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, string(body), err}
	}()
	<-entered
	closed := make(chan error, 1)
	go func() {
		closed <- Close(func(ctx context.Context) error { return Shutdown(ctx, srv) })
	}()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if r := <-replies; r.err != nil || r.status != http.StatusOK || r.body != "done" {
		t.Fatalf("in-flight request got status %d body %q err %v, want 200 done", r.status, r.body, r.err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
}
