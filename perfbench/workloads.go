package main

// The workloads. Rates and sizes live here, beside the code that uses
// them; README.md explains why each workload exists.

// conns is the number of client connections: nproc on the machine the
// benchmark was defined on (2 CPUs). Fixed, not read from the host, so
// that every run offers the same load.
const conns = 2

// workload is one traffic mix.
type workload struct {
	name    string
	cluster bool // router + 3 workers instead of one node
	// rate is the open-loop offered rate in requests per second, chosen
	// well below the closed-loop capacity.
	rate float64
	// capacity is a generous estimate of closed-loop requests per second;
	// it only sizes the pre-generated closed-loop stream.
	capacity float64
	// openShare of --seconds goes to the open loop, the rest to the
	// closed loop.
	openShare float64
	// hotPerFamily instances of every hot family are primed in set-up,
	// each on one endpoint; 0 means no hot set.
	hotPerFamily int
	// relabelShare of warm repeats carry a fresh vertex permutation.
	relabelShare float64
	// mix shapes cluster-edit's reads and session writes.
	mix editMix
}

var workloads = []*workload{
	{
		name:      "cold-mix",
		rate:      100,
		capacity:  500,
		openShare: 0.65,
	},
	{
		name:         "warm-relabel",
		rate:         300,
		capacity:     5000,
		openShare:    0.65,
		hotPerFamily: 20,
		relabelShare: 0.03,
	},
	{
		name:         "cluster-edit",
		cluster:      true,
		rate:         150,
		capacity:     1000,
		openShare:    0.6,
		hotPerFamily: 20,
		mix: editMix{writeShare: 0.4, novelShare: 0.2, zipfS: 1.1, zipfV: 50,
			relabelings: 4, sessions: 96},
	},
}

// raceDeadlineMS is the race budget every solve request asks for, as a
// compiler client would: the exact members search until it fires, and
// an answer cut off by it is marked deadline_hit.
const raceDeadlineMS = 50

// probeRate bounds the traced run's single-node delta probe: batches
// per second one connection can plausibly apply.
const probeRate = 1500

// probeSessions is the number of sessions the delta probe spreads its
// batches over.
const probeSessions = 160

// warmupRequests are discarded before each timed phase.
const warmupRequests = 12

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
