package main

import "testing"

// req is one open-loop request as the generator saw it: due, actually sent,
// completed.
type req struct{ due, sent, done int64 }

// origins replays reqs through a startRule and returns each latency origin.
func origins(reqs []req) []int64 {
	var r startRule
	out := make([]int64, len(reqs))
	for i, q := range reqs {
		out[i] = r.origin(q.due, q.sent)
		r.done(out[i], q.done)
	}
	return out
}

func TestStartRule(t *testing.T) {
	for _, c := range []struct {
		name string
		reqs []req
		want []int64
	}{{
		// A punctual generator whose worker is still waiting on the first
		// reply when the second request falls due: the wait is the
		// system's, so the second request is timed from its due time.
		name: "waiting on previous reply",
		reqs: []req{{0, 0, 50}, {20, 50, 80}},
		want: []int64{0, 20},
	}, {
		name: "idle worker",
		reqs: []req{{0, 0, 50}, {100, 100, 130}},
		want: []int64{0, 100},
	}, {
		// The generator overslept by 1000: the late send and the catch-up
		// burst behind it are the generator's doing, so every request is
		// timed from its actual send.
		name: "timer overshoot",
		reqs: []req{{100, 1100, 1110}, {110, 1110, 1120}, {120, 1120, 1130}},
		want: []int64{1100, 1110, 1120},
	}, {
		// A reply that took 1000 holds back the two requests due during
		// it; each keeps counting its wait until the backlog drains.
		name: "slow reply",
		reqs: []req{{0, 0, 1000}, {100, 1000, 1010}, {200, 1010, 1020}, {5000, 5000, 5010}},
		want: []int64{0, 100, 200, 5000},
	}, {
		// An overslept burst that the system then serves slowly: only the
		// wait behind the slow reply counts, not the oversleep before it.
		name: "overshoot then slow reply",
		reqs: []req{{100, 1100, 1600}, {110, 1600, 1610}},
		want: []int64{1100, 1600 - 490},
	}} {
		got := origins(c.reqs)
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: origins %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestValuesRoundTripAndDetectCorruption(t *testing.T) {
	ws := newWriters(2)
	id := ws.next(1)
	v := makeValue("k1", id, 64)
	if got, err := ws.check("k1", v, 64); err != nil || got != id {
		t.Fatalf("check of a fresh value = %#x, %v", got, err)
	}
	for name, bad := range map[string]func() ([]byte, string){
		"other key":   func() ([]byte, string) { return v, "k2" },
		"short":       func() ([]byte, string) { return v[:56], "k1" },
		"corrupt":     func() ([]byte, string) { b := append([]byte(nil), v...); b[40] ^= 1; return b, "k1" },
		"never wrote": func() ([]byte, string) { return makeValue("k1", 1<<40|7, 64), "k1" },
	} {
		b, key := bad()
		if _, err := ws.check(key, b, 64); err == nil {
			t.Errorf("%s: check accepted a bad value", name)
		}
	}
}
