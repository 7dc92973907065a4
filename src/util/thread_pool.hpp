// Shared thread-pool parallel runtime.
//
// One lazily-started pool serves every parallelizable hot path in the
// library (the per-user evaluation sweep, batch MiniRocket transforms
// and WaveformModel::decisions at one task per series, per-key
// enrollment training, the ridge lambda grid, a service batch's
// requests when ServiceOptions::batch_threads > 1).  The only
// primitive is `parallel_for(n, chunk, fn)`: indices [0, n) are split
// into contiguous chunks which workers claim from a shared atomic
// cursor, so results are written to per-index slots and any reduction
// happens serially in the caller afterwards — output is bit-identical to
// serial execution regardless of the thread count.
//
// Exception contract: the first task that throws wins.  Its exception is
// captured, dispatch of the remaining chunks is cancelled (the cursor is
// pushed past the end; in-flight tasks finish), and the caller receives
// a `ParallelForError` carrying the throwing index and the original
// exception.  Serial execution (one thread, or a nested call) follows
// the same contract.
//
// Nesting: a `parallel_for` issued from inside a pool task is rejected
// as a parallel submission and runs inline on the calling task's thread
// (a fixed-size pool that re-enters itself can deadlock).  The
// recursion-friendly consequence is that only the outermost loop of a
// pipeline fans out — exactly what the evaluation sweep wants.
//
// Thread-count policy (the single place it is decided): an explicit
// per-call `max_threads` wins; otherwise `resolve_threads(0)` applies —
// the `P2AUTH_THREADS` environment variable if set, else
// `std::thread::hardware_concurrency()`.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <stdexcept>

namespace p2auth::util {

// Thrown by `parallel_for` when a task throws: carries the index of the
// first failing task and the original exception.
class ParallelForError : public std::runtime_error {
 public:
  ParallelForError(std::size_t index, std::exception_ptr cause);

  // Index of the first task observed to throw.
  std::size_t index() const noexcept { return index_; }

  // The captured task exception (never null).
  const std::exception_ptr& cause() const noexcept { return cause_; }

  // Rethrows the original task exception.
  [[noreturn]] void rethrow_cause() const { std::rethrow_exception(cause_); }

 private:
  std::size_t index_;
  std::exception_ptr cause_;
};

// Resolves a requested worker count: any `requested > 0` is honoured
// as-is; 0 means the `P2AUTH_THREADS` environment variable (read once)
// if set to a positive integer, else the hardware concurrency, floored
// at 1.
std::size_t resolve_threads(std::size_t requested = 0);

// Runs `fn(i)` for every i in [0, n).  Indices are dispatched in
// contiguous chunks of `chunk` (0 is treated as 1) claimed from a shared
// cursor; at most `max_threads` threads participate (0 = the
// `resolve_threads(0)` default).  The calling thread always participates,
// so `max_threads == 1` runs entirely inline.  Throws `ParallelForError`
// on task failure (see file comment for the full contract).
//
// `fn` must tolerate concurrent invocation on distinct indices and
// should only write to per-index state; reductions belong in the caller,
// after this returns, so results stay independent of the thread count.
void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t max_threads = 0);

// True while the calling thread is executing a `parallel_for` task (a
// nested call would therefore run inline).
bool in_parallel_task() noexcept;

}  // namespace p2auth::util
