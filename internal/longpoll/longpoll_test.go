package longpoll

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestSignalFireBetweenHandOutAndSelect: a channel handed out before a
// Fire is closed by it, even when the waiter selects only afterwards.
func TestSignalFireBetweenHandOutAndSelect(t *testing.T) {
	var mu sync.Mutex
	var s Signal
	mu.Lock()
	ch := s.Wait(false)
	mu.Unlock()
	mu.Lock()
	s.Fire()
	mu.Unlock()
	select {
	case <-ch:
	default:
		t.Fatal("a Fire between hand-out and select was lost")
	}
	mu.Lock()
	next := s.Wait(false)
	mu.Unlock()
	select {
	case <-next:
		t.Fatal("a channel handed out after the Fire is already closed")
	default:
	}
}

// TestSignalMovedReturnsSharedClosed: a cursor already behind the
// counter gets a closed channel, the same one every time, and no wait
// channel is allocated for it.
func TestSignalMovedReturnsSharedClosed(t *testing.T) {
	var s Signal
	a, b := s.Wait(true), s.Wait(true)
	if a != b {
		t.Error("two already-moved waits got different channels")
	}
	select {
	case <-a:
	default:
		t.Fatal("an already-moved wait got an open channel")
	}
	if s.ch != nil {
		t.Error("an already-moved wait allocated a wait channel")
	}
	if n := testing.AllocsPerRun(100, func() { s.Wait(true) }); n != 0 {
		t.Errorf("an already-moved wait allocates %.0f times", n)
	}
}

// TestSignalBroadcast: one Fire wakes every waiter at once.
func TestSignalBroadcast(t *testing.T) {
	var mu sync.Mutex
	var s Signal
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		mu.Lock()
		ch := s.Wait(false)
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ch
		}()
	}
	mu.Lock()
	s.Fire()
	mu.Unlock()
	wg.Wait()
}

func TestParkOutcomes(t *testing.T) {
	closedCh := make(chan struct{})
	close(closedCh)
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	var drain Latch
	drain.Close()
	var open Latch
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		changed <-chan struct{}
		drain   <-chan struct{}
		wait    time.Duration
		want    Outcome
	}{
		{"change", ctx, closedCh, open.Done(), time.Minute, Changed},
		{"timeout", ctx, make(chan struct{}), open.Done(), time.Millisecond, Timeout},
		{"drain", ctx, make(chan struct{}), drain.Done(), time.Minute, Drained},
		{"cancelled", cancelled, make(chan struct{}), open.Done(), time.Minute, Cancelled},
	} {
		if got := Park(tc.ctx, tc.changed, tc.drain, tc.wait); got != tc.want {
			t.Errorf("%s: Park = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestParkWakesParkedWaiter: a waiter already parked is released by a
// Fire and by a drain.
func TestParkWakesParkedWaiter(t *testing.T) {
	var mu sync.Mutex
	var s Signal
	var drain Latch
	mu.Lock()
	ch := s.Wait(false)
	mu.Unlock()
	got := make(chan Outcome, 2)
	go func() { got <- Park(context.Background(), ch, drain.Done(), time.Minute) }()
	go func() { got <- Park(context.Background(), make(chan struct{}), drain.Done(), time.Minute) }()
	mu.Lock()
	s.Fire()
	mu.Unlock()
	if o := <-got; o != Changed {
		t.Fatalf("first release = %d, want Changed", o)
	}
	drain.Close()
	drain.Close()
	if o := <-got; o != Drained {
		t.Fatalf("second release = %d, want Drained", o)
	}
	if !drain.Closed() {
		t.Error("a closed latch reports open")
	}
}

func TestParseWait(t *testing.T) {
	for _, tc := range []struct {
		in   string
		def  time.Duration
		want time.Duration
		bad  bool
	}{
		{"", DefaultWait, DefaultWait, false},
		{"", 0, 0, false},
		{"2s", DefaultWait, 2 * time.Second, false},
		{"1h", 0, MaxWait, false},
		{"-1s", 0, 0, true},
		{"soon", 0, 0, true},
	} {
		got, err := ParseWait(tc.in, tc.def)
		if (err != nil) != tc.bad || got != tc.want {
			t.Errorf("ParseWait(%q, %v) = %v, %v; want %v, error %v", tc.in, tc.def, got, err, tc.want, tc.bad)
		}
	}
	if _, err := ParseWait("soon", 0); err == nil || err.Error() != `invalid wait "soon"` {
		t.Errorf("malformed wait error = %v", err)
	}
}

// TestBackoff: the delay doubles from 50 ms up to Max, Reset starts it
// over, and a cancelled context ends a Sleep at once.
func TestBackoff(t *testing.T) {
	b := Backoff{Max: 120 * time.Millisecond}
	var delays []time.Duration
	for i := 0; i < 3; i++ {
		if !b.Sleep(context.Background()) {
			t.Fatal("Sleep reported a live context as ended")
		}
		delays = append(delays, b.d)
	}
	// Each entry is the delay the next Sleep waits.
	want := []time.Duration{100 * time.Millisecond, 120 * time.Millisecond, 120 * time.Millisecond}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delays %v, want %v", delays, want)
		}
	}
	b.Reset()
	if b.d != 0 {
		t.Fatal("Reset kept the delay")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b = Backoff{Max: time.Hour, d: time.Hour}
	if b.Sleep(ctx) {
		t.Fatal("Sleep on a cancelled context reported true")
	}
}

func TestNonceDiffers(t *testing.T) {
	if a, b := Nonce(), Nonce(); a == b || len(a) != 16 {
		t.Fatalf("nonces %q and %q", a, b)
	}
}
