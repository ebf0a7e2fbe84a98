package wire

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		ra   string
		want time.Duration
	}{
		{"delta seconds", "7", 7 * time.Second},
		{"zero seconds", "0", 0},
		{"negative seconds", "-3", 0},
		{"http date ahead", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date in the past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"rfc 850 date", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second},
		{"garbage", "soon", 0},
		{"empty", "", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.ra, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", tc.name, tc.ra, got, tc.want)
		}
	}
}

// TestRetryAfterHTTPDate is the regression for the client dropping
// HTTP-date Retry-After values (RFC 9110 allows both forms; only
// delta-seconds used to parse, leaving RetryAfter zero).
func TestRetryAfterHTTPDate(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	_, err := NewClient(hs.URL).Tasks(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.RetryAfter <= 0 || apiErr.RetryAfter > 30*time.Second {
		t.Fatalf("RetryAfter = %v, want in (0s, 30s]", apiErr.RetryAfter)
	}
}
