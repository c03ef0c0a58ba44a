package pregel

import (
	"testing"
)

func floatRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(float64(0), Float64Codec{})
	return reg
}

// sumFloats and sumInts are summing combiners: they fold every pair.
func sumFloats(held *Message, m Message) bool {
	*held = (*held).(float64) + m.(float64)
	return true
}

func sumInts(held *Message, m Message) bool {
	*held = (*held).(int64) + m.(int64)
	return true
}

// maxPropagationOpts is a message-heavy computation (max flooding on a
// circulant graph) used to compare transports end to end.
func maxPropagationOpts(workers int, transport Transport) (Options, []*Vertex) {
	vs := buildChain(30)
	for i := range vs {
		vs[i].State = float64(i)
	}
	return Options{
		Workers:       workers,
		MaxSupersteps: 10,
		Transport:     transport,
		Codecs:        floatRegistry(),
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			val := v.State.(float64)
			for _, m := range msgs {
				if m.(float64) > val {
					val = m.(float64)
				}
			}
			if val != v.State.(float64) || ctx.Superstep() == 0 {
				v.State = val
				ctx.Send((v.ID+1)%30, val)
				ctx.Send((v.ID+7)%30, val)
			}
			ctx.VoteToHalt()
		},
	}, vs
}

func TestTCPTransportSSSP(t *testing.T) {
	const n = 50
	vs := buildChain(n)
	eng, err := NewEngine(Options{
		Workers:       3,
		MaxSupersteps: n + 2,
		Transport:     TCPTransport(),
		Codecs:        floatRegistry(),
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			dist := v.State.(float64)
			if ctx.Superstep() == 0 && v.ID == 0 {
				dist = 0
			}
			for _, m := range msgs {
				if d := m.(float64); d < dist {
					dist = d
				}
			}
			if dist < v.State.(float64) || (ctx.Superstep() == 0 && v.ID == 0) {
				v.State = dist
				if int(v.ID) < n-1 {
					ctx.Send(v.ID+1, dist+1)
				}
			}
			ctx.VoteToHalt()
		},
	}, vs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := eng.Vertex(VertexID(i)).State.(float64); got != float64(i) {
			t.Fatalf("dist[%d] = %v, want %d", i, got, i)
		}
	}
	if stats.TotalBytes == 0 {
		t.Fatal("TCP run shipped messages but measured zero wire bytes")
	}
}

func TestTCPMatchesMemoryTransport(t *testing.T) {
	run := func(transport Transport) ([]float64, *Stats) {
		opts, vs := maxPropagationOpts(4, transport)
		eng, err := NewEngine(opts, vs)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 30)
		for i := range out {
			out[i] = eng.Vertex(VertexID(i)).State.(float64)
		}
		return out, stats
	}
	memState, memStats := run(MemoryTransport())
	tcpState, tcpStats := run(TCPTransport())
	for i := range memState {
		if memState[i] != tcpState[i] {
			t.Fatalf("transports disagree at vertex %d: %v vs %v", i, memState[i], tcpState[i])
		}
	}
	if memStats.TotalMessages != tcpStats.TotalMessages {
		t.Fatalf("message counts differ: memory %d, tcp %d", memStats.TotalMessages, tcpStats.TotalMessages)
	}
	if memStats.RemoteMessages != tcpStats.RemoteMessages {
		t.Fatalf("remote counts differ: memory %d, tcp %d", memStats.RemoteMessages, tcpStats.RemoteMessages)
	}
	// TCP measures frames on the wire (remote only, headers included);
	// memory measures encoded sizes of all messages. Both must be nonzero
	// here, but they measure different things.
	if memStats.TotalBytes == 0 || tcpStats.TotalBytes == 0 {
		t.Fatalf("byte accounting missing: memory %d, tcp %d", memStats.TotalBytes, tcpStats.TotalBytes)
	}
}

func TestTCPRequiresCodecs(t *testing.T) {
	opts, vs := maxPropagationOpts(2, TCPTransport())
	opts.Codecs = nil
	eng, err := NewEngine(opts, vs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("TCP transport without codecs should fail")
	}
}

func TestTCPUnregisteredMessageType(t *testing.T) {
	vs := buildChain(10)
	eng, err := NewEngine(Options{
		Workers:       2,
		MaxSupersteps: 3,
		Transport:     TCPTransport(),
		Codecs:        floatRegistry(),
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			ctx.Send((v.ID+1)%10, "not a float")
			ctx.VoteToHalt()
		},
	}, vs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("sending an unregistered message type over TCP should fail")
	}
}

func TestSenderSideCombiningReducesRemoteTraffic(t *testing.T) {
	// Every vertex messages vertex 0. Without a combiner each send crosses
	// the transport; with one, each source worker emits at most one
	// envelope for vertex 0.
	run := func(combine bool) *Stats {
		vs := buildChain(64)
		opts := Options{
			Workers:       4,
			MaxSupersteps: 2,
			Codecs:        floatRegistry(),
			Compute: func(ctx *Context, v *Vertex, msgs []Message) {
				if ctx.Superstep() == 0 {
					ctx.Send(0, 1.0)
				}
				ctx.VoteToHalt()
			},
		}
		if combine {
			opts.Combiner = sumFloats
		}
		eng, err := NewEngine(opts, vs)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	plain := run(false)
	combined := run(true)
	if combined.TotalMessages >= plain.TotalMessages {
		t.Fatalf("combining did not reduce messages: %d vs %d", combined.TotalMessages, plain.TotalMessages)
	}
	if combined.RemoteMessages >= plain.RemoteMessages {
		t.Fatalf("combining did not reduce remote messages: %d vs %d", combined.RemoteMessages, plain.RemoteMessages)
	}
	if combined.TotalBytes >= plain.TotalBytes {
		t.Fatalf("combining did not reduce bytes: %d vs %d", combined.TotalBytes, plain.TotalBytes)
	}
	// At most one combined envelope per worker can target vertex 0.
	if combined.TotalMessages > 4 {
		t.Fatalf("expected <= 4 combined envelopes, got %d", combined.TotalMessages)
	}
}

func TestCombinerEquivalenceOnIntegers(t *testing.T) {
	// Integer sums are exactly associative, so combined and uncombined runs
	// must produce identical states, while the combined run ships fewer
	// envelopes.
	run := func(combine bool) ([]int64, *Stats) {
		vs := make([]*Vertex, 40)
		for i := range vs {
			vs[i] = &Vertex{ID: VertexID(i), State: int64(0)}
		}
		opts := Options{
			Workers:       5,
			MaxSupersteps: 4,
			Compute: func(ctx *Context, v *Vertex, msgs []Message) {
				var sum int64
				for _, m := range msgs {
					sum += m.(int64)
				}
				v.State = v.State.(int64) + sum
				if ctx.Superstep() < 2 {
					for d := 0; d < 5; d++ {
						ctx.Send(VertexID((int(v.ID)+d*7)%40), int64(v.ID)+1)
					}
				}
				ctx.VoteToHalt()
			},
		}
		if combine {
			opts.Combiner = sumInts
		}
		eng, err := NewEngine(opts, vs)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, 40)
		for i := range out {
			out[i] = eng.Vertex(VertexID(i)).State.(int64)
		}
		return out, stats
	}
	plainState, plainStats := run(false)
	combState, combStats := run(true)
	for i := range plainState {
		if plainState[i] != combState[i] {
			t.Fatalf("combining changed the result at vertex %d: %d vs %d", i, plainState[i], combState[i])
		}
	}
	if combStats.TotalMessages >= plainStats.TotalMessages {
		t.Fatalf("combined run did not ship fewer envelopes: %d vs %d",
			combStats.TotalMessages, plainStats.TotalMessages)
	}
}
