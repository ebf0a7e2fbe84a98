package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"imc2/internal/gen"
	"imc2/internal/imcerr"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/registry"
)

// startRegistry serves an empty registry (no default /v1 campaign).
func startRegistry(t *testing.T) (*Client, *Server) {
	t.Helper()
	srv := NewRegistryServer(registry.New(), "", platform.DefaultConfig(), nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return NewClient(hs.URL), srv
}

// testWorkload generates a settleable campaign workload (same shape as
// startCampaign's).
func testWorkload(t *testing.T, seed int64) *gen.Campaign {
	t.Helper()
	spec := gen.DefaultSpec()
	spec.Workers = 20
	spec.Tasks = 15
	spec.Copiers = 5
	spec.TasksPerWorker = 9
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.ParticipationDecay = 0.3
	c, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// driveCampaign runs one campaign end to end over /v2 and returns its
// report.
func driveCampaign(t *testing.T, client *Client, w *gen.Campaign, name string) (*CampaignInfo, *Report) {
	t.Helper()
	ctx := context.Background()
	info, err := client.CreateCampaign(ctx, CreateCampaignRequest{Name: name, Tasks: w.Dataset.Tasks()})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "open" {
		t.Fatalf("created campaign state = %q, want open", info.State)
	}
	subs := make([]Submission, 0, w.Dataset.NumWorkers())
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		subs = append(subs, submissionFor(w, i))
	}
	n, err := client.SubmitBatch(ctx, info.ID, subs)
	if err != nil || n != len(subs) {
		t.Fatalf("batch submit = %d, %v", n, err)
	}
	closing, err := client.CloseCampaign(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if closing.State != "closing" && closing.State != "settled" {
		t.Fatalf("close returned state %q", closing.State)
	}
	settled, err := client.AwaitSettled(ctx, info.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	report, err := client.CampaignReport(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	return settled, report
}

func TestV2TwoConcurrentCampaignsEndToEnd(t *testing.T) {
	client, _ := startRegistry(t)
	w1 := testWorkload(t, 42)
	w2 := testWorkload(t, 1042)

	type outcome struct {
		info   *CampaignInfo
		report *Report
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	for k, w := range []*gen.Campaign{w1, w2} {
		wg.Add(1)
		go func(k int, w *gen.Campaign) {
			defer wg.Done()
			info, rep := driveCampaign(t, client, w, fmt.Sprintf("campaign-%d", k))
			results[k] = outcome{info, rep}
		}(k, w)
	}
	wg.Wait()

	if results[0].info.ID == results[1].info.ID {
		t.Fatal("both campaigns got the same ID")
	}
	for k, res := range results {
		if len(res.report.Winners) == 0 {
			t.Fatalf("campaign %d: no winners", k)
		}
	}
	// The wire outcome must equal the identical in-process run.
	for k, w := range []*gen.Campaign{w1, w2} {
		p, err := platform.New(w.Dataset.Tasks())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < w.Dataset.NumWorkers(); i++ {
			sub := submissionFor(w, i)
			if err := p.Submit(platform.Submission{Worker: sub.Worker, Price: sub.Price, Answers: sub.Answers}); err != nil {
				t.Fatal(err)
			}
		}
		local, err := p.Run(platform.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(local.Winners) != fmt.Sprint(results[k].report.Winners) {
			t.Errorf("campaign %d winners differ: wire %v vs local %v", k, results[k].report.Winners, local.Winners)
		}
		if math.Abs(local.SocialCost-results[k].report.SocialCost) > 1e-9 {
			t.Errorf("campaign %d social cost differs", k)
		}
	}

	// Audit is reachable per campaign.
	audit, err := client.CampaignAudit(context.Background(), results[0].info.ID)
	if err != nil || len(audit.Pairs) == 0 {
		t.Fatalf("audit = %+v, %v", audit, err)
	}
}

func TestV2ListPagination(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 3)
	for i := 0; i < 7; i++ {
		if _, err := client.CreateCampaign(ctx, CreateCampaignRequest{
			Name: fmt.Sprintf("c%d", i), Tasks: w.Dataset.Tasks(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	page, err := client.Campaigns(ctx, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 7 || len(page.Campaigns) != 3 || page.Limit != 3 {
		t.Fatalf("page = %+v", page)
	}
	page2, err := client.Campaigns(ctx, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Campaigns) != 1 {
		t.Fatalf("last page has %d campaigns", len(page2.Campaigns))
	}
	if page2.Campaigns[0].ID <= page.Campaigns[2].ID {
		t.Fatal("listing not in creation order")
	}
}

// TestV2ListPageLimitClamped covers the server-side page-size clamp:
// limit=0 (and any negative limit) must fall back to the default page
// size rather than "the rest of the registry", and oversized limits
// saturate at the maximum — otherwise an unauthenticated request could
// force a full-registry snapshot per call.
func TestV2ListPageLimitClamped(t *testing.T) {
	reg := registry.New()
	w := testWorkload(t, 3)
	for i := 0; i < defaultPageLimit+10; i++ {
		if _, err := reg.Create(fmt.Sprintf("c%d", i), w.Dataset.Tasks(), platform.DefaultConfig(), false); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewRegistryServer(reg, "", platform.DefaultConfig(), nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	client := NewClient(hs.URL)
	ctx := context.Background()

	fetch := func(rawQuery string) *CampaignPage {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v2/campaigns" + rawQuery)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", rawQuery, resp.StatusCode)
		}
		var page CampaignPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return &page
	}

	total := defaultPageLimit + 10
	for _, tc := range []struct {
		query     string
		wantLimit int
		wantLen   int
	}{
		{"", defaultPageLimit, defaultPageLimit},
		{"?limit=0", defaultPageLimit, defaultPageLimit},
		{"?limit=-1", defaultPageLimit, defaultPageLimit},
		{"?limit=100000", maxPageLimit, total},
		{"?limit=5", 5, 5},
	} {
		page := fetch(tc.query)
		if page.Limit != tc.wantLimit {
			t.Errorf("GET %q: limit = %d, want %d", tc.query, page.Limit, tc.wantLimit)
		}
		if len(page.Campaigns) != tc.wantLen {
			t.Errorf("GET %q: %d campaigns, want %d", tc.query, len(page.Campaigns), tc.wantLen)
		}
		if page.Total != total {
			t.Errorf("GET %q: total = %d, want %d", tc.query, page.Total, total)
		}
	}

	// A negative offset is refused, like a non-integer one: the registry
	// would clamp it to 0 and serve the first page under a bogus offset.
	for _, q := range []string{"?offset=-3", "?offset=x"} {
		resp, err := http.Get(hs.URL + "/v2/campaigns" + q)
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || body.Code != string(imcerr.CodeInvalid) {
			t.Errorf("GET %q = %d %q, want 400 invalid", q, resp.StatusCode, body.Code)
		}
	}

	// The typed client's "server default" request shares the clamp.
	page, err := client.Campaigns(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Limit != defaultPageLimit || len(page.Campaigns) != defaultPageLimit {
		t.Fatalf("client default page: limit=%d len=%d, want %d", page.Limit, len(page.Campaigns), defaultPageLimit)
	}
}

// TestRequestBodyCap covers maxRequestBody: a fig5-scale batch (400
// workers × 500 answers, about 4 MB) is accepted whole, and a body one
// byte past the cap is refused as invalid on every endpoint that
// decodes one, before the server buffers more than the cap.
func TestRequestBodyCap(t *testing.T) {
	spec := gen.DefaultSpec()
	spec.Workers = 400
	spec.Tasks = 2000
	spec.Copiers = 100
	spec.TasksPerWorker = 500
	spec.ParticipationDecay = 0.3
	spec.RequirementLow, spec.RequirementHigh = 1, 2
	w, err := gen.NewCampaign(spec, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]Submission, w.Dataset.NumWorkers())
	for i := range subs {
		subs[i] = submissionFor(w, i)
	}
	batch, err := json.Marshal(submitRequest{Submissions: subs})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) < 1<<20 || len(batch) > maxRequestBody/4 {
		t.Fatalf("fig5 batch is %d bytes; the cap (%d) should leave at least 4x headroom", len(batch), maxRequestBody)
	}

	client, _ := startRegistry(t)
	ctx := context.Background()
	info, err := client.CreateCampaign(ctx, CreateCampaignRequest{Name: "fig5", Tasks: w.Dataset.Tasks()})
	if err != nil {
		t.Fatal(err)
	}
	n, err := client.SubmitBatch(ctx, info.ID, subs)
	if err != nil || n != len(subs) {
		t.Fatalf("fig5 batch: accepted %d of %d, err %v", n, len(subs), err)
	}

	// One byte past the cap, as a still-open JSON string so only the cap
	// can end the decode.
	oversize := append([]byte(`{"name":"`), bytes.Repeat([]byte("x"), maxRequestBody)...)
	reg := registry.New()
	def, err := reg.Create("default", w.Dataset.Tasks(), platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	h := NewRegistryServer(reg, def.ID(), platform.DefaultConfig(), nil).Handler()
	for _, path := range []string{
		"/v2/campaigns",
		"/v2/campaigns/" + def.ID() + "/submissions",
		"/v1/submissions",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(oversize)))
		var body errorBody
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		if rec.Code != http.StatusBadRequest || body.Code != string(imcerr.CodeInvalid) ||
			!strings.Contains(body.Error, "request body exceeds") {
			t.Errorf("POST %s = %d %+v, want 400 invalid naming the cap", path, rec.Code, body)
		}
	}
	if def.Submissions() != 0 {
		t.Fatalf("oversize bodies registered %d submissions", def.Submissions())
	}
}

func TestV2DraftOpenCancel(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 5)

	draft, err := client.CreateCampaign(ctx, CreateCampaignRequest{Name: "d", Tasks: w.Dataset.Tasks(), Draft: true})
	if err != nil {
		t.Fatal(err)
	}
	if draft.State != "draft" {
		t.Fatalf("state = %q, want draft", draft.State)
	}
	// Draft rejects submissions with a conflict.
	err = client.SubmitTo(ctx, draft.ID, submissionFor(w, 0))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 409 || apiErr.Code != "conflict" {
		t.Fatalf("submit to draft: %v", err)
	}
	if !errors.Is(err, imcerr.ErrConflict) {
		t.Fatal("APIError does not match imcerr.ErrConflict")
	}

	opened, err := client.OpenCampaign(ctx, draft.ID)
	if err != nil || opened.State != "open" {
		t.Fatalf("open: %+v, %v", opened, err)
	}
	if err := client.SubmitTo(ctx, draft.ID, submissionFor(w, 0)); err != nil {
		t.Fatal(err)
	}

	cancelled, err := client.CancelCampaign(ctx, draft.ID)
	if err != nil || cancelled.State != "cancelled" {
		t.Fatalf("cancel: %+v, %v", cancelled, err)
	}
	// Closing a cancelled campaign conflicts (it still has a submission,
	// so it passes the emptiness check and fails on state).
	_, err = client.CloseCampaign(ctx, draft.ID)
	if !errors.Is(err, imcerr.ErrConflict) {
		t.Fatalf("close cancelled: %v", err)
	}
}

func TestV2ErrorCodes(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 9)

	// Unknown campaign → 404 not_found.
	_, err := client.Campaign(ctx, "cmp-missing")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != "not_found" {
		t.Fatalf("missing campaign: %v", err)
	}
	// No tasks and no spec → 400 invalid.
	_, err = client.CreateCampaign(ctx, CreateCampaignRequest{Name: "empty"})
	if !errors.Is(err, imcerr.ErrInvalid) {
		t.Fatalf("empty create: %v", err)
	}
	// Both tasks and spec → 400 invalid.
	spec := gen.DefaultSpec()
	_, err = client.CreateCampaign(ctx, CreateCampaignRequest{Tasks: w.Dataset.Tasks(), Spec: &spec})
	if !errors.Is(err, imcerr.ErrInvalid) {
		t.Fatalf("tasks+spec create: %v", err)
	}
	// Close with no submissions → 422 infeasible.
	info, err := client.CreateCampaign(ctx, CreateCampaignRequest{Name: "e", Tasks: w.Dataset.Tasks()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.CloseCampaign(ctx, info.ID)
	if !errors.As(err, &apiErr) || apiErr.Status != 422 || apiErr.Code != "infeasible" {
		t.Fatalf("close empty: %v", err)
	}
	// Report before close → 409 conflict.
	_, err = client.CampaignReport(ctx, info.ID)
	if !errors.Is(err, imcerr.ErrConflict) {
		t.Fatalf("report before close: %v", err)
	}
}

func TestV2CreateFromSpec(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	spec := gen.DefaultSpec()
	spec.Workers = 20
	spec.Tasks = 15
	spec.Copiers = 5
	spec.TasksPerWorker = 9
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.ParticipationDecay = 0.3

	info, err := client.CreateCampaign(ctx, CreateCampaignRequest{Name: "gen", Spec: &spec, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if info.Tasks != 15 {
		t.Fatalf("generated campaign has %d tasks, want 15", info.Tasks)
	}
	// Workers derived from the same spec+seed submit coherently.
	w := testWorkload(t, 42)
	if _, err := client.SubmitBatch(ctx, info.ID, []Submission{submissionFor(w, 0)}); err != nil {
		t.Fatalf("seed-derived submission rejected: %v", err)
	}
}

func TestV2CloseIsIdempotentAcrossStates(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 13)
	info, rep := driveCampaign(t, client, w, "idem")
	// Closing a settled campaign returns the settled snapshot.
	again, err := client.CloseCampaign(ctx, info.ID)
	if err != nil || again.State != "settled" {
		t.Fatalf("re-close: %+v, %v", again, err)
	}
	rep2, err := client.CampaignReport(ctx, info.ID)
	if err != nil || fmt.Sprint(rep.Winners) != fmt.Sprint(rep2.Winners) {
		t.Fatalf("report changed after re-close: %v", err)
	}
}

func TestV1AndV2CoexistOverDefaultCampaign(t *testing.T) {
	// A server built the v1 way exposes the same campaign over v2.
	client, c, _ := startCampaign(t, 77)
	ctx := context.Background()

	page, err := client.Campaigns(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 {
		t.Fatalf("default-campaign registry lists %d campaigns", page.Total)
	}
	id := page.Campaigns[0].ID

	// Submit over v1, observe over v2.
	if err := client.Submit(ctx, submissionFor(c, 0)); err != nil {
		t.Fatal(err)
	}
	info, err := client.Campaign(ctx, id)
	if err != nil || info.Submissions != 1 {
		t.Fatalf("v2 snapshot after v1 submit: %+v, %v", info, err)
	}
	// Submit the rest over v2, close over v1.
	for i := 1; i < c.Dataset.NumWorkers(); i++ {
		if err := client.SubmitTo(ctx, id, submissionFor(c, i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := client.Close(ctx)
	if err != nil || len(rep.Winners) == 0 {
		t.Fatalf("v1 close: %v", err)
	}
	// v2 report agrees.
	rep2, err := client.CampaignReport(ctx, id)
	if err != nil || fmt.Sprint(rep.Winners) != fmt.Sprint(rep2.Winners) {
		t.Fatalf("v2 report disagrees with v1 close: %v", err)
	}
}

// TestV2Stress fires parallel submissions, closes, and reads at one
// campaign and across many registry campaigns. Run with -race.
func TestV2Stress(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 17)
	tasks := w.Dataset.Tasks()

	const campaigns = 4
	ids := make([]string, campaigns)
	for k := range ids {
		info, err := client.CreateCampaign(ctx, CreateCampaignRequest{
			Name: fmt.Sprintf("stress-%d", k), Tasks: tasks,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = info.ID
	}

	var wg sync.WaitGroup
	for _, id := range ids {
		// Parallel single submissions at each campaign.
		for i := 0; i < w.Dataset.NumWorkers(); i++ {
			wg.Add(1)
			go func(id string, i int) {
				defer wg.Done()
				// Rejections (late vs. a concurrent close) are fine;
				// transport failures are not.
				if err := client.SubmitTo(ctx, id, submissionFor(w, i)); err != nil {
					var apiErr *APIError
					if !errors.As(err, &apiErr) {
						t.Errorf("submit transport error: %v", err)
					}
				}
			}(id, i)
		}
		// Concurrent reads and listings.
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := client.Campaign(ctx, id); err != nil {
					t.Errorf("snapshot: %v", err)
				}
				if _, err := client.Campaigns(ctx, 0, 2); err != nil {
					t.Errorf("list: %v", err)
				}
			}
		}(id)
	}
	wg.Wait()

	// Parallel closes (several per campaign) plus reads during settle.
	for _, id := range ids {
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				if _, err := client.CloseCampaign(ctx, id); err != nil {
					t.Errorf("close %s: %v", id, err)
				}
			}(id)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := client.AwaitSettled(ctx, id, time.Millisecond); err != nil {
				t.Errorf("await %s: %v", id, err)
			}
		}(id)
	}
	wg.Wait()

	for _, id := range ids {
		rep, err := client.CampaignReport(ctx, id)
		if err != nil || len(rep.Winners) == 0 {
			t.Fatalf("campaign %s report: %v", id, err)
		}
	}
}
