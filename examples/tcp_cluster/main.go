// TCP cluster example: the same distributed algorithm the other examples
// run in-process, but over real TCP sockets — one goroutine per rank here
// for convenience, though each rank only ever touches its Comm, its data
// partition and its local solver, so the ranks could equally be separate
// processes on separate machines (pass rank 0 ListenTCP's address to the
// workers).
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"tpascd"
)

const (
	k      = 4
	epochs = 30
)

func main() {
	a, y, err := tpascd.GenerateWebspam(tpascd.WebspamConfig{
		N: 8192, M: 4096, AvgNNZPerRow: 32, Skew: 1, NoiseRate: 0.05, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	p, err := tpascd.NewProblem(a, y, 0.001)
	if err != nil {
		log.Fatal(err)
	}

	// Partition the examples (dual form) across the ranks.
	parts := tpascd.PartitionRandom(p.N, k, 1)
	cfg := tpascd.ClusterConfig{Aggregation: tpascd.Adaptive, Link: tpascd.Link10GbE}

	// Failure detection: a dead or stalled rank surfaces as a typed
	// *tpascd.ErrPeerDown within the collective timeout instead of
	// hanging the cluster, and the whole group must assemble within the
	// join deadline (workers retry their dial with backoff under it, so
	// master/worker startup order doesn't matter).
	commCfg := tpascd.DefaultCommConfig()
	commCfg.CollectiveTimeout = 10 * time.Second
	commCfg.JoinTimeout = 30 * time.Second

	// Rank 0 listens; the bound address is what remote workers would dial.
	master, addr, err := tpascd.ListenTCPConfig("127.0.0.1:0", k, commCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("master listening on %s, waiting for %d workers\n", addr, k-1)

	var wg sync.WaitGroup
	gaps := make([]float64, k)
	runRank := func(rank int, comm tpascd.Comm) {
		defer wg.Done()
		defer comm.Close()
		// The rank's local solver is the engine's sequential driver over
		// its partition of the examples.
		w, err := tpascd.NewWorker(comm, p, tpascd.Dual, parts[rank], tpascd.DriverSpec{Seed: uint64(rank) + 100}, cfg)
		if err != nil {
			log.Fatalf("rank %d: %v", rank, err)
		}
		for e := 1; e <= epochs; e++ {
			if _, err := w.RunEpoch(); err != nil {
				log.Fatalf("rank %d epoch %d: %v", rank, e, err)
			}
			if rank == 0 && e%10 == 0 {
				gap, err := w.Gap()
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("epoch %2d  collective gap %.3e  γ=%.3f\n", e, gap, w.Gamma())
			} else if rank != 0 && e%10 == 0 {
				// Gap is collective: every rank must participate.
				if _, err := w.Gap(); err != nil {
					log.Fatalf("rank %d gap: %v", rank, err)
				}
			}
		}
		g, err := w.Gap()
		if err != nil {
			log.Fatalf("rank %d final gap: %v", rank, err)
		}
		gaps[rank] = g
	}

	wg.Add(1)
	go runRank(0, master)
	for r := 1; r < k; r++ {
		comm, err := tpascd.DialTCPConfig(addr, r, k, commCfg)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go runRank(r, comm)
	}
	wg.Wait()

	for r := 1; r < k; r++ {
		if gaps[r] != gaps[0] {
			log.Fatalf("ranks disagree on the final gap: %v vs %v", gaps[r], gaps[0])
		}
	}
	fmt.Printf("all %d ranks agree: final duality gap %.3e over real TCP\n", k, gaps[0])
}
