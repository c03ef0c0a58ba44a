package pregel

import (
	"testing"
)

func floatRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(float64(0), Float64Codec{})
	return reg
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
