package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// TestEventIsOneCacheLine pins the event's size. The queue copies whole
// events on every push and pop and keeps one per slot of its peak, so
// an event that fills exactly one 64-byte cache line is what keeps both
// cheap; a new field must not silently regrow it to 80 bytes.
func TestEventIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 64", got)
	}
}

// before orders events by (at, seq); seq is unique, so this is a total
// order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// heapQueue is the kernel's former event queue, a 4-ary min-heap of
// by-value events ordered by before, kept as the model the radix queue
// is checked against in lockstep.
type heapQueue []event

func (q *heapQueue) push(e event) {
	h := append(*q, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

func (q *heapQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&last) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = last
	return top
}

// FuzzEventQueue drives the radix queue and the heap model with one
// stream of operations and requires the same (at, seq) pop sequence.
// Each byte's low three bits pick the operation and the rest its
// argument: a pop (0–2, a push when empty), a push at the current time
// (3) or 0–7 ns after it (4), a push 2^k ns ahead with k from 0 to 40,
// so the top buckets fill (5), a push one second ahead, the scale of
// MRAI, mask-TTL and liveness timers (6), and a drain to empty (7),
// after which an odd argument also resets the queue the way the
// cold-start release does. Like the kernel, it never schedules into the past.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{3, 3, 3, 0, 0, 0})
	f.Add([]byte{5 | 31<<3, 5 | 3<<3, 4 | 2<<3, 3, 0, 5 | 20<<3, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{6, 4 | 7<<3, 6, 3, 0, 7 | 1<<3, 4, 4 | 1<<3, 0, 5 | 28<<3, 7, 3, 0})
	f.Add([]byte{4 | 5<<3, 4 | 5<<3, 4 | 1<<3, 5 | 9<<3, 1, 4 | 2<<3, 2, 5 | 1<<3, 0, 0, 0})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventQueue
		var model heapQueue
		var now time.Duration
		var seq uint64
		pop := func() {
			got, want := q.pop(), model.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("pop is (%v, %d), the model's (%v, %d)", got.at, got.seq, want.at, want.seq)
			}
			now = got.at
			if q.slots[q.free].msg != nil {
				t.Fatal("the vacated slot still references its message")
			}
		}
		push := func(d time.Duration) {
			seq++
			ev := event{at: now + d, seq: seq, msg: pingMsg{}}
			q.push(ev)
			model.push(ev)
		}
		for _, b := range ops {
			arg := int(b >> 3)
			switch op := b & 7; {
			case op <= 2 && q.queued > 0:
				pop()
			case op <= 3:
				push(0)
			case op == 4:
				push(time.Duration(arg % 8))
			case op == 5:
				push(1 << (arg * 40 / 31))
			case op == 6:
				push(time.Second)
			default:
				for q.queued > 0 {
					pop()
				}
				if arg&1 == 1 {
					q, model = eventQueue{}, nil
				}
			}
			if q.queued != len(model) {
				t.Fatalf("%d events queued, the model holds %d", q.queued, len(model))
			}
		}
		for q.queued > 0 {
			pop()
		}
	})
}

// steadyQueue is a queue with a fixed number of events in flight: each
// step pops an event and pushes it back after the next of delays, as a
// delivery's reply or a re-armed timer would be, so the queue neither
// grows nor drains.
type steadyQueue struct {
	q      eventQueue
	delays []time.Duration
	seq    uint64
	i      int
}

// newSteadyQueue fills a queue with inFlight events. Its delays are
// 0–5 ms, a link's delay, and with timers every 16th is one second
// more.
func newSteadyQueue(inFlight int, timers bool) *steadyQueue {
	rng := rand.New(rand.NewSource(1))
	s := &steadyQueue{delays: make([]time.Duration, 4096)}
	for i := range s.delays {
		s.delays[i] = time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
		if timers && i%16 == 0 {
			s.delays[i] += time.Second
		}
	}
	for i := 0; i < inFlight; i++ {
		s.seq++
		s.q.push(event{at: s.delays[i%len(s.delays)], seq: s.seq})
	}
	return s
}

func (s *steadyQueue) step() {
	ev := s.q.pop()
	s.seq++
	ev.at += s.delays[s.i%len(s.delays)]
	ev.seq = s.seq
	s.q.push(ev)
	s.i++
}

// BenchmarkEventQueue measures one steady-state pop and push with a fixed
// number of events in flight. ns/op is the queue's share of one event.
// The timers case makes one push in 16 a second ahead, so most of what
// is in flight waits in the top buckets.
func BenchmarkEventQueue(b *testing.B) {
	for _, bc := range []struct {
		name     string
		inFlight int
		timers   bool
	}{{"1k", 1_000, false}, {"100k", 100_000, false}, {"1k-timers", 1_000, true}} {
		b.Run(bc.name, func(b *testing.B) {
			s := newSteadyQueue(bc.inFlight, bc.timers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step()
			}
		})
	}
}

// TestEventQueueSteadyStateAllocatesNothing pins what BenchmarkEventQueue
// reports: once the arena holds the peak, a pop and a push reuse a slot.
func TestEventQueueSteadyStateAllocatesNothing(t *testing.T) {
	for _, timers := range []bool{false, true} {
		s := newSteadyQueue(1_000, timers)
		if a := testing.AllocsPerRun(10_000, s.step); a != 0 {
			t.Fatalf("timers=%v: a steady pop and push allocates %v times", timers, a)
		}
	}
}
