// Distributed partitioning: run SHP-2 through the vertex-centric BSP engine
// (the paper's Giraph implementation, Figure 3) and inspect the engine's
// message accounting — the communication-complexity story of Section 3.3.
//
// The run is repeated on both message-plane backends: the in-process
// exchange and the loopback TCP transport, where batches are framed and
// serialized through typed codecs so the byte counts are measured on real
// sockets rather than estimated. A final run kills a worker mid-protocol to
// demonstrate checkpoint/rollback recovery landing on the exact same
// partition.
package main

import (
	"fmt"
	"log"

	"shp"
)

func main() {
	g, err := shp.GeneratePowerLawBipartite(8000, 14000, 80000, 2.1, 1)
	if err != nil {
		log.Fatal(err)
	}
	g = shp.PruneTrivialQueries(g, 2)
	fmt.Printf("hypergraph: |Q|=%d |D|=%d |E|=%d\n", g.NumQueries(), g.NumData(), g.NumEdges())

	run := func(label string, opts shp.DistributedOptions) *shp.DistributedResult {
		res, err := shp.PartitionDistributed(g, opts)
		if err != nil {
			log.Fatal(err)
		}
		f := shp.Fanout(g, res.Assignment, opts.K)
		fmt.Printf("\n%s: fanout %.3f, %d supersteps, %v wall, %v total\n",
			label, f, res.Stats.Supersteps, res.Elapsed.Round(1e6), res.TotalTime.Round(1e6))
		fmt.Printf("  messages: %d total, %d crossed machines (%.0f%%), %.2f MB\n",
			res.Stats.TotalMessages, res.Stats.RemoteMessages,
			100*float64(res.Stats.RemoteMessages)/float64(res.Stats.TotalMessages+1),
			float64(res.Stats.TotalBytes)/1e6)
		perIter := float64(res.Stats.TotalMessages) / float64(res.Iterations+1)
		fmt.Printf("  per refinement iteration: %.0f messages (|E| = %d — O(|E|) as Section 3.3 predicts)\n",
			perIter, g.NumEdges())
		return res
	}

	for _, workers := range []int{1, 4} {
		run(fmt.Sprintf("%d machine(s), in-process plane", workers),
			shp.DistributedOptions{K: 16, Workers: workers, Seed: 2})
	}

	// Same seed over real sockets: identical partition, measured wire bytes.
	mem := run("4 machines, in-process plane", shp.DistributedOptions{K: 16, Workers: 4, Seed: 7})
	tcp := run("4 machines, TCP loopback plane", shp.DistributedOptions{
		K: 16, Workers: 4, Seed: 7, Transport: shp.TCPTransport(),
	})
	same := len(mem.Assignment) == len(tcp.Assignment)
	for i := range mem.Assignment {
		same = same && mem.Assignment[i] == tcp.Assignment[i]
	}
	fmt.Printf("\ntransport equivalence: identical partitions on both planes = %v\n", same)
	fmt.Printf("  TCP bytes are measured from encoded frames that crossed sockets (local\n")
	fmt.Printf("  traffic ships for free); the in-process number is the codec-computed\n")
	fmt.Printf("  size of all traffic, local messages included.\n")

	// Fault tolerance: kill a worker mid-protocol and let the engine roll
	// back to the last checkpoint, taken every 2 iterations (8 supersteps),
	// and replay. The deterministic protocol makes the recovered run land on
	// the exact same partition.
	recovered := run("4 machines, worker 2 killed at superstep 9", shp.DistributedOptions{
		K: 16, Workers: 4, Seed: 7,
		Transport: shp.FaultyTransport(shp.MemoryTransport(), shp.FaultPlan{
			KillWorker: 2, KillStep: 9,
		}),
		CheckpointEvery: 2,
	})
	same = len(mem.Assignment) == len(recovered.Assignment)
	for i := range mem.Assignment {
		same = same && mem.Assignment[i] == recovered.Assignment[i]
	}
	fmt.Printf("\nfault tolerance: %d recovery (rolled back and replayed), %.1f KB of checkpoints,\n",
		recovered.Stats.Recoveries, float64(recovered.Stats.CheckpointBytes)/1e3)
	fmt.Printf("  partition identical to the undisturbed run = %v\n", same)
}
