package experiments

import (
	"testing"

	"hermes/internal/engine"
	"hermes/internal/term"
)

// TestDifferentialMemoEquivalence is the memo cache's acceptance test:
// 220 generated queries, memo on/off × parallelism 1/4, identical answer
// multisets everywhere, a ≥30% hit rate on the repeat-heavy profile, and
// repeat queries running faster with the memo than without it.
func TestDifferentialMemoEquivalence(t *testing.T) {
	rep, err := RunDifferential(DefaultDifferentialOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries < 200 {
		t.Fatalf("workload too small: %d queries", rep.Queries)
	}
	if rep.TotalMismatches != 0 {
		t.Fatalf("answer multisets diverged:\n%s", FormatDifferential(rep))
	}
	var offRepeat, onRepeat float64
	for _, c := range rep.Configs {
		if c.Errors != 0 {
			t.Errorf("%s: %d query errors", c.Name, c.Errors)
		}
		if c.Memo && c.HitRate < 0.30 {
			t.Errorf("%s: hit rate %.0f%% < 30%%", c.Name, c.HitRate*100)
		}
		if c.Parallelism == 1 {
			if c.Memo {
				onRepeat = c.RepeatMeanMS
			} else {
				offRepeat = c.RepeatMeanMS
			}
		}
	}
	if onRepeat >= offRepeat {
		t.Errorf("memo did not speed up repeat queries: %.0f ms with memo vs %.0f ms without", onRepeat, offRepeat)
	}
	t.Logf("\n%s", FormatDifferential(rep))
}

// TestDifferentialWorkloadDeterministic pins the generator: same seed,
// same stream.
func TestDifferentialWorkloadDeterministic(t *testing.T) {
	a := differentialWorkload(7, 50, 0.5)
	b := differentialWorkload(7, 50, 0.5)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestAnswerMultisetKeepsDuplicates guards the harness itself: the
// differential and chaos comparisons must not collapse duplicates.
func TestAnswerMultisetKeepsDuplicates(t *testing.T) {
	answers := []engine.Answer{
		{Vals: []term.Value{term.Str("a")}},
		{Vals: []term.Value{term.Str("a")}},
		{Vals: []term.Value{term.Str("b")}},
	}
	ms := answerMultiset(answers)
	if len(ms) != 3 {
		t.Fatalf("multiset collapsed duplicates: %v", ms)
	}
}
