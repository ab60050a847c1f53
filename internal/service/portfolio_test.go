package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"regcoal/internal/strategy"
)

func intCmp(a, b int) int { return a - b }

func TestRaceReturnsBestDeterministically(t *testing.T) {
	members := []racer[int]{
		{name: "small", run: func(context.Context) (int, error) { return 1, nil }},
		{name: "big", run: func(context.Context) (int, error) { return 7, nil }},
		{name: "big-too", run: func(context.Context) (int, error) { return 7, nil }},
	}
	for i := 0; i < 50; i++ { // arrival order varies; winner must not
		best, winner, idx, hit, err := race(context.Background(), members, intCmp, nil)
		if err != nil || hit {
			t.Fatalf("err=%v deadlineHit=%v", err, hit)
		}
		if best != 7 || winner != "big" || idx != 1 {
			t.Fatalf("got (%d, %s, %d), want (7, big, 1): ties keep the earlier member", best, winner, idx)
		}
	}
}

func TestRaceSkipsInapplicable(t *testing.T) {
	members := []racer[int]{
		{name: "declines", run: func(context.Context) (int, error) {
			return 0, fmt.Errorf("%w: not my kind of graph", strategy.ErrInapplicable)
		}},
		{name: "answers", run: func(context.Context) (int, error) { return 3, nil }},
	}
	best, winner, _, _, err := race(context.Background(), members, intCmp, nil)
	if err != nil || best != 3 || winner != "answers" {
		t.Fatalf("got (%d, %s, %v)", best, winner, err)
	}
}

func TestRaceAllFail(t *testing.T) {
	boom := errors.New("boom")
	members := []racer[int]{
		{name: "a", run: func(context.Context) (int, error) { return 0, boom }},
	}
	_, _, _, _, err := race(context.Background(), members, intCmp, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestRaceDeadlineReturnsBestSoFar(t *testing.T) {
	slowDone := make(chan struct{})
	defer close(slowDone)
	members := []racer[int]{
		{name: "fast", run: func(context.Context) (int, error) { return 2, nil }},
		{name: "slow", run: func(ctx context.Context) (int, error) {
			select {
			case <-slowDone:
			case <-ctx.Done():
			}
			return 99, nil
		}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	best, winner, _, hit, err := race(ctx, members, intCmp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("deadline race not marked deadlineHit")
	}
	if winner != "fast" && best != 99 {
		t.Fatalf("got (%d, %s)", best, winner)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("race did not return promptly after deadline")
	}
}

func TestRaceDeadlineWithNoAnswerWaitsForFirst(t *testing.T) {
	members := []racer[int]{
		{name: "late", run: func(ctx context.Context) (int, error) {
			<-ctx.Done() // honors cancellation, then reports its best
			return 5, nil
		}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	best, winner, _, hit, err := race(ctx, members, intCmp, nil)
	if err != nil || best != 5 || winner != "late" || !hit {
		t.Fatalf("got (%d, %s, hit=%v, err=%v), want the post-deadline answer", best, winner, hit, err)
	}
}

func TestNormalizeStrategies(t *testing.T) {
	got := normalizeStrategies([]string{"brute", "briggs", "brute"})
	if len(got) != 2 || got[0] != "briggs" || got[1] != "brute" {
		t.Fatalf("got %v", got)
	}
}
