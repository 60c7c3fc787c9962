// RunGrid/Job API: deterministic parallel execution of an (app x config)
// experiment matrix.
//
// Every simulation cell is fully independent and deterministic, so the
// executor schedules each cell as an isolated job on a fixed-size
// ThreadPool and returns results in *grid order* (the input order),
// regardless of completion order. With jobs == 1 everything runs inline
// on the calling thread -- no worker threads are created -- reproducing
// the historical serial path bit for bit.
//
// Worker count resolution (DefaultJobs): the DLPSIM_JOBS environment
// knob when set to a positive integer, else std::thread's
// hardware_concurrency (minimum 1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "exec/timing.h"

namespace dlpsim::exec {

/// One cell of an experiment grid.
struct Job {
  std::string app;
  std::string config;
};

/// The (app x config) matrix in app-major (row-major) order: the cell
/// (a, c) lands at index a * configs.size() + c.
std::vector<Job> Grid(const std::vector<std::string>& apps,
                      const std::vector<std::string>& configs);

/// Worker count: DLPSIM_JOBS if set to a positive integer, otherwise
/// hardware_concurrency (never 0).
std::size_t DefaultJobs();

namespace detail {
/// Adds `n` to the exec.jobs_dispatched registry counter. Lives in
/// run_grid.cpp so this template header needs no obs/ include. Counted
/// in ParallelMap itself -- NOT in the ThreadPool -- so the total is the
/// same whether the work ran inline (jobs <= 1 never touches a pool) or
/// on workers, preserving the registry's byte-identity across
/// DLPSIM_JOBS.
void CountJobsDispatched(std::size_t n);
}  // namespace detail

/// Runs fn(i) for i in [0, n) on up to `jobs` workers and returns the
/// results in index order. jobs <= 1 executes inline (serial path). If
/// any invocation throws, the first failing index's exception is
/// rethrown after all jobs finish.
template <typename Fn>
auto ParallelMap(std::size_t n, Fn&& fn, std::size_t jobs = DefaultJobs())
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> results(n);
  if (n == 0) return results;
  detail::CountJobsDispatched(n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) results[i] = fn(i);
    return results;
  }
  std::vector<std::exception_ptr> errors(n);
  {
    ThreadPool pool(std::min(jobs, n));
    for (std::size_t i = 0; i < n; ++i) {
      pool.Submit([&results, &errors, &fn, i] {
        try {
          results[i] = fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.Wait();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  return results;
}

/// Maps `fn` over the grid cells; results in grid order.
template <typename Fn>
auto RunJobs(const std::vector<Job>& grid, Fn&& fn,
             std::size_t jobs = DefaultJobs())
    -> std::vector<std::invoke_result_t<Fn&, const Job&>> {
  return ParallelMap(
      grid.size(), [&grid, &fn](std::size_t i) { return fn(grid[i]); }, jobs);
}

// --- resilient execution (TryRunJobs) ---
//
// RunJobs/ParallelMap abort the whole grid on the first failing cell --
// correct for tests, fatal for a multi-hour sweep where one bad cell
// should not discard hundreds of finished ones. TryRunJobs runs every
// cell once and reports the ones that threw as structured JobFailures
// instead of throwing. Cells are deterministic, so a failed cell is not
// retried: it would fail the same way again.

/// One cell that threw.
struct JobFailure {
  std::size_t index = 0;  // grid index (app-major)
  Job job;
  std::string error;      // what() of the exception
};

/// Outcome of a resilient grid run. `results[i]` is value-initialized
/// for every failed cell i (look it up in `failures` by index).
template <typename R>
struct GridRun {
  std::vector<R> results;
  std::vector<JobFailure> failures;  // in grid order
  bool ok() const { return failures.empty(); }
};

/// Runs every grid cell through `fn` once; never throws a cell's
/// exception. The grid always runs to completion and failures come back
/// as data (recorded into <bench>_timing.json by the harness).
template <typename Fn>
auto TryRunJobs(const std::vector<Job>& grid, Fn&& fn,
                std::size_t jobs = DefaultJobs())
    -> GridRun<std::invoke_result_t<Fn&, const Job&>> {
  GridRun<std::invoke_result_t<Fn&, const Job&>> run;
  run.results.resize(grid.size());
  std::vector<std::optional<std::string>> errors(grid.size());
  ParallelMap(
      grid.size(),
      [&](std::size_t i) -> int {
        try {
          run.results[i] = fn(grid[i]);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        } catch (...) {
          errors[i] = "unknown exception";
        }
        return 0;
      },
      jobs);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (errors[i]) {
      run.failures.push_back(JobFailure{i, grid[i], std::move(*errors[i])});
    }
  }
  return run;
}

}  // namespace dlpsim::exec
