package erasure

// Bounded worker pool for shard-parallel encoding and reconstruction.
//
// Output rows are split into (row, column-range) tasks with disjoint write
// sets, so workers never contend and the result is byte-identical to the
// sequential order regardless of scheduling. Parallelism only kicks in
// above parallelMinShardBytes: Quick-config tests and small matrix work run
// strictly sequentially (deterministic, no goroutine overhead), while
// 1 MiB-class blocks fan out across the pool.

import (
	"runtime"

	"icistrategy/internal/par"
)

const (
	// parallelMinShardBytes is the per-shard size below which encode and
	// reconstruct stay sequential.
	parallelMinShardBytes = 64 << 10
	// parallelChunkBytes is the column-range granularity of one pool task:
	// small enough to balance load across rows, large enough that the
	// per-task overhead is noise.
	parallelChunkBytes = 64 << 10
)

// rowTask names one unit of pool work: output row r, columns [lo, hi).
type rowTask struct {
	row    int
	lo, hi int
}

// runRowTasks executes fn for every task, on at most GOMAXPROCS goroutines
// that exit when the task list drains. fn must write only to the task's
// row/range.
func runRowTasks(tasks []rowTask, fn func(rowTask)) {
	par.Each(len(tasks), 0, func(i int) { fn(tasks[i]) })
}

// rowTasks builds the task list for rows output rows of size bytes each:
// one task per row when sequential or small, column-split tasks when the
// shards are large enough to parallelize.
func rowTasks(rows, size int) []rowTask {
	if size < parallelMinShardBytes || runtime.GOMAXPROCS(0) <= 1 {
		tasks := make([]rowTask, rows)
		for r := range tasks {
			tasks[r] = rowTask{row: r, lo: 0, hi: size}
		}
		return tasks
	}
	var tasks []rowTask
	for r := 0; r < rows; r++ {
		for lo := 0; lo < size; lo += parallelChunkBytes {
			hi := min(lo+parallelChunkBytes, size)
			tasks = append(tasks, rowTask{row: r, lo: lo, hi: hi})
		}
	}
	return tasks
}
