package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, name string) *reportFile {
	t.Helper()
	rf, err := loadReportFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

// testdata/parent.json and change.json are three untraced serve_miss runs
// each (the parent also carries a traced run, which must be ignored):
// throughput drops 14% against a 10% bound, p50 rises 3%, the parent's tail
// latencies spread 77% against a 20% bound, fail_ratio rises off zero, and
// qps is absent from the change.
func TestCompareFixtures(t *testing.T) {
	pairs := compareSets(loadFixture(t, "parent.json"), loadFixture(t, "change.json"))
	got := make(map[string]pairResult)
	for _, p := range pairs {
		if p.Workload != "serve_miss" {
			t.Errorf("unexpected workload %q", p.Workload)
		}
		got[p.Metric] = p
	}
	want := map[string]string{
		"throughput_per_s": verdictBreach,
		"lat_p50_ms":       verdictOK,
		"lat_tail_ms":      verdictUnresolved,
		"fail_ratio":       verdictBreach,
		"qps":              verdictMissing,
	}
	if len(got) != len(want) {
		t.Errorf("compared %d pairs, want %d (per-layer metrics and traced runs are not compared): %+v", len(got), len(want), got)
	}
	for metric, verdict := range want {
		if got[metric].Verdict != verdict {
			t.Errorf("%s: verdict %q, want %q (%+v)", metric, got[metric].Verdict, verdict, got[metric])
		}
	}
	thr := got["throughput_per_s"]
	if thr.RunsA != 3 || thr.RunsB != 3 || thr.MedianA != 505 || thr.MedianB != 435 || !near(thr.Worse, 70.0/505) {
		t.Errorf("throughput pair %+v", thr)
	}
	if p50 := got["lat_p50_ms"]; !near(p50.Worse, 0.1/3.5) {
		t.Errorf("lat_p50_ms worse by %v, want %v", p50.Worse, 0.1/3.5)
	}

	var sb strings.Builder
	if !printComparison(&sb, pairs) {
		t.Error("a breach must make the comparison fail")
	}
	for _, word := range []string{"BREACH", "unresolved", "missing", "throughput_per_s"} {
		if !strings.Contains(sb.String(), word) {
			t.Errorf("comparison output lacks %q:\n%s", word, sb.String())
		}
	}
}

func TestCompareSetWithItselfPasses(t *testing.T) {
	change := loadFixture(t, "change.json")
	var sb strings.Builder
	if printComparison(&sb, compareSets(change, change)) {
		t.Errorf("a set compared with itself breached:\n%s", sb.String())
	}
}

func TestReportFileAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.json")
	for i := 0; i < 2; i++ {
		r := newRunReport(wlServeMiss, uint64(i), false, 10, false)
		r.OpsAttempted = 10
		r.set("throughput_per_s", 500, 10)
		r.finish()
		if err := appendReport(path, r); err != nil {
			t.Fatal(err)
		}
	}
	rf, err := loadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Runs) != 2 || rf.Runs[1].Seed != 1 || rf.Runs[0].Metrics["fail_ratio"].Kind != kindE2E {
		t.Errorf("appended report holds %+v", rf.Runs)
	}
}
