package obs

// Metric names published by the PDES coordinator
// (internal/sim/coordinator.go) on every observed run, whatever
// its worker count. They live here so the observability layer
// documents one canonical name space and consumers (dashboards, tests)
// need not hard-code strings scattered across packages.
const (
	// MetricPDESSteps counts drain rounds: each round runs every node
	// engine to empty, one round per barrier.
	MetricPDESSteps = "pdes.steps"
	// MetricPDESIdleRounds counts engine-rounds with nothing pending at
	// the start of the round: the node had no work before the barrier.
	MetricPDESIdleRounds = "pdes.idle_rounds"
	// MetricPDESWorkers is the worker-thread count the run used (1 when
	// the caller drained every engine itself).
	MetricPDESWorkers = "pdes.workers"
	// MetricPDESEfficiency is the busy fraction of engine-rounds,
	// 1 - idle/(steps*engines): the deterministic (wall-clock-free)
	// parallel-efficiency proxy of the run.
	MetricPDESEfficiency = "pdes.parallel_efficiency"
)
