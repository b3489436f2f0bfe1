// Host-speed calibration. Shared and throttled hosts change the speed of a
// fixed computation by tens of percent from one second to the next, which
// would drown any change a run could show. Every run therefore times short
// bursts of fixed kernels that use no safeopt code, spread over the run,
// and reports times at the reference speed: a measured interval is scaled
// by (reference burst time) / (mean burst time around it). A library
// change moves the op times but not the bursts; a slower host moves both.
//
// How much a slow spell slows code depends on what the code does — on this
// kind of host a tight loop over an L1-resident array slows differently
// from allocation-heavy pointer chasing — so the kernels come in kinds and
// each workload picks the kinds its ops spend their time in.
#ifndef PERFBENCH_CALIBRATION_H
#define PERFBENCH_CALIBRATION_H

#include <cstdint>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {

enum class Kernel {
  /// Random read-modify-writes over a 1 MiB table plus string-keyed map
  /// inserts: parsing, preprocessing, BDD unique tables, serving.
  kMemory,
  /// Linear searches of a 1000-entry array: leaf-ordinal lookups, which
  /// the Monte Carlo structure-function walk, leaf input assembly and
  /// preprocessing all make this way.
  kScan,
  /// exp/log1p/erf arithmetic: the expression tapes of the cost models.
  kFloat,
  /// One-byte round trips through a pair of pipes to a helper thread: the
  /// system calls and thread wake-ups of a loopback HTTP exchange.
  kSyscall,
};

class Calibration {
 public:
  /// The reference speed: each kernel takes this long. (On the host the
  /// benchmark was tuned on, a kernel takes about this long when nothing
  /// else runs, so reference times read close to unloaded wall time.)
  static constexpr double kReferenceKernelUs = 1000.0;

  explicit Calibration(Clock::time_point epoch);
  ~Calibration();
  Calibration(const Calibration&) = delete;
  Calibration& operator=(const Calibration&) = delete;

  /// The kernels every later burst runs. Set once, before the first burst.
  void set_profile(std::vector<Kernel> kernels);

  /// Runs one burst (every kernel of the profile) and records its duration.
  void burst();

  /// Runs a burst when at least `period_ms` passed since the last one.
  void maybe_burst(double period_ms);

  /// Reference-speed factor at `t`: the reference burst time over the mean
  /// burst time within a second of `t`, or over the run's mean burst time
  /// when no burst fell there.
  [[nodiscard]] double factor_at(Clock::time_point t) const;

  /// The factor over the whole run.
  [[nodiscard]] double mean_factor() const;

  /// The factor over the bursts recorded since `first` (a bursts() value).
  [[nodiscard]] double factor_since(std::size_t first) const;

  /// Reference-speed length of [begin, end), in seconds.
  [[nodiscard]] double reference_seconds(Clock::time_point begin,
                                         Clock::time_point end) const;

  [[nodiscard]] std::size_t bursts() const noexcept { return samples_.size(); }
  [[nodiscard]] Clock::time_point epoch() const noexcept { return epoch_; }
  [[nodiscard]] const std::vector<Kernel>& profile() const noexcept {
    return profile_;
  }

 private:
  struct Sample {
    double at_s = 0.0;  // burst midpoint, seconds since the epoch
    double us = 0.0;
  };
  [[nodiscard]] double seconds_since_epoch(Clock::time_point t) const;
  [[nodiscard]] double reference_burst_us() const;
  std::uint32_t run(Kernel kernel, std::uint64_t seed);

  Clock::time_point epoch_;
  Clock::time_point last_;
  std::vector<Kernel> profile_{Kernel::kMemory};
  std::vector<Sample> samples_;
  std::vector<std::uint32_t> table_;
  std::vector<std::uint32_t> ordinals_;
  // The kSyscall helper: echoes every byte from to_helper_ to from_helper_,
  // started on first use and stopped by the destructor.
  int to_helper_[2] = {-1, -1};
  int from_helper_[2] = {-1, -1};
  std::thread helper_;
};

/// The run's calibration. Bursts are taken by one thread at a time (the
/// serve workload pauses its clients for them); factors are read after.
[[nodiscard]] Calibration& host_calibration();

/// Names a kernel kind for the run's notes.
[[nodiscard]] const char* kernel_name(Kernel kernel);

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H
