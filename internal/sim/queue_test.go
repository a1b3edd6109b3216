package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// TestEventIsOneCacheLine pins the event's size. The heap moves whole
// events on every pop and at every level of a sift, so an event that
// fills exactly one 64-byte cache line is what keeps those moves cheap;
// a new field must not silently regrow it to 80 bytes.
func TestEventIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 64", got)
	}
}

// FuzzEventQueue drives push/pop interleavings through the heap. Each
// byte either pops (odd, when anything is queued) or pushes an event at
// the current time plus 0–7 ns, so equal times and pushes at the current
// time are common. Like the kernel, it never schedules into the past, so
// the whole pop sequence must equal the pushed events sorted by
// (at, seq).
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{14, 12, 10, 8, 6, 4, 2, 0, 1, 0, 1, 0, 3, 5, 7, 9})
	f.Add([]byte{2, 2, 2, 2, 2, 3, 0, 0, 1, 4, 1, 1, 6, 6, 6, 1})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventQueue
		var pushed, popped []event
		var now time.Duration
		pop := func() {
			ev := q.pop()
			now = ev.at
			popped = append(popped, ev)
			if len(q) < cap(q) && q[:len(q)+1][len(q)].msg != nil {
				t.Fatal("the vacated slot still references its message")
			}
		}
		for _, b := range ops {
			if b&1 == 1 && len(q) > 0 {
				pop()
				continue
			}
			ev := event{at: now + time.Duration(b>>1%8), seq: uint64(len(pushed) + 1), msg: pingMsg{}}
			pushed = append(pushed, ev)
			q.push(ev)
		}
		for len(q) > 0 {
			pop()
		}
		sort.Slice(pushed, func(i, j int) bool { return pushed[i].before(&pushed[j]) })
		if len(popped) != len(pushed) {
			t.Fatalf("popped %d events, pushed %d", len(popped), len(pushed))
		}
		for i := range pushed {
			if popped[i].at != pushed[i].at || popped[i].seq != pushed[i].seq {
				t.Fatalf("pop %d is (%v, %d), want (%v, %d)",
					i, popped[i].at, popped[i].seq, pushed[i].at, pushed[i].seq)
			}
		}
	})
}

// BenchmarkEventQueue measures one steady-state pop and push with a fixed
// number of events in flight: each popped event is pushed back 0–5 ms
// later, as a delivery's reply would be, so the queue neither grows nor
// drains. ns/op is the heap's share of one event.
func BenchmarkEventQueue(b *testing.B) {
	for _, bc := range []struct {
		name     string
		inFlight int
	}{{"1k", 1_000}, {"100k", 100_000}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]time.Duration, 4096)
			for i := range delays {
				delays[i] = time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
			}
			q := make(eventQueue, 0, bc.inFlight)
			var seq uint64
			for i := 0; i < bc.inFlight; i++ {
				seq++
				q.push(event{at: delays[i%len(delays)], seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				seq++
				ev.at += delays[i%len(delays)]
				ev.seq = seq
				q.push(ev)
			}
		})
	}
}
