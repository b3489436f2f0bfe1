#include "calibration.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "safeopt/support/strings.h"

namespace perfbench {

namespace {

// Sized so each kernel takes about kReferenceKernelUs on an unloaded
// x86-64 core of the tuning host.
constexpr std::size_t kTableWords = std::size_t{1} << 18;  // 1 MiB
constexpr int kTableSteps = 120000;
constexpr int kMapInserts = 1500;
constexpr std::uint32_t kOrdinals = 1000;
constexpr int kSearches = 6000;
constexpr int kFloatSteps = 24000;
constexpr int kPipeTrips = 250;
/// Bursts within this many seconds of an instant calibrate it.
constexpr double kWindowS = 1.0;

}  // namespace

const char* kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kMemory:
      return "memory";
    case Kernel::kScan:
      return "scan";
    case Kernel::kFloat:
      return "float";
    case Kernel::kSyscall:
      return "syscall";
  }
  return "?";
}

Calibration::Calibration(Clock::time_point epoch)
    : epoch_(epoch),
      last_(epoch),
      table_(kTableWords, 1u),
      ordinals_(kOrdinals) {
  std::iota(ordinals_.begin(), ordinals_.end(), 0u);
}

Calibration::~Calibration() {
  if (helper_.joinable()) {
    const char stop = 0;
    if (::write(to_helper_[1], &stop, 1) == 1) helper_.join();
    else helper_.detach();
  }
  for (const int fd : {to_helper_[0], to_helper_[1], from_helper_[0],
                       from_helper_[1]}) {
    if (fd >= 0) ::close(fd);
  }
}

void Calibration::set_profile(std::vector<Kernel> kernels) {
  profile_ = std::move(kernels);
}

double Calibration::seconds_since_epoch(Clock::time_point t) const {
  return std::chrono::duration<double>(t - epoch_).count();
}

double Calibration::reference_burst_us() const {
  return kReferenceKernelUs * static_cast<double>(profile_.size());
}

std::uint32_t Calibration::run(Kernel kernel, std::uint64_t x) {
  std::uint32_t acc = 0;
  switch (kernel) {
    case Kernel::kMemory: {
      for (int i = 0; i < kTableSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t& slot = table_[x & (kTableWords - 1)];
        slot = slot * 2654435761u + static_cast<std::uint32_t>(i);
        acc += slot >> 7;
      }
      std::map<std::string, std::uint32_t> names;
      for (int i = 0; i < kMapInserts; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        names.emplace(safeopt::concat("c", std::to_string(x >> 44), ".e",
                                      std::to_string(i)),
                      acc + static_cast<std::uint32_t>(i));
      }
      for (const auto& [name, value] : names) acc += value ^ name.size();
      break;
    }
    case Kernel::kScan: {
      std::uint32_t key = static_cast<std::uint32_t>(x);
      for (int i = 0; i < kSearches; ++i) {
        key = (key * 1103515245u + 12345u) % kOrdinals;
        acc += static_cast<std::uint32_t>(
            std::find(ordinals_.begin(), ordinals_.end(), key) -
            ordinals_.begin());
      }
      break;
    }
    case Kernel::kFloat: {
      double sum = 0.0;
      for (int i = 1; i <= kFloatSteps; ++i) {
        const double t = static_cast<double>(i);
        sum += std::exp(-1e-5 * t) * std::log1p(t) + std::erf(1e-4 * t);
      }
      acc += static_cast<std::uint32_t>(sum);
      break;
    }
    case Kernel::kSyscall: {
      if (!helper_.joinable()) {
        if (::pipe(to_helper_) != 0 || ::pipe(from_helper_) != 0) {
          throw std::runtime_error("calibration: cannot create pipes");
        }
        helper_ = std::thread([in = to_helper_[0], out = from_helper_[1]] {
          char byte = 0;
          while (::read(in, &byte, 1) == 1 && byte != 0) {
            if (::write(out, &byte, 1) != 1) break;
          }
        });
      }
      char byte = 1;
      for (int i = 0; i < kPipeTrips; ++i) {
        if (::write(to_helper_[1], &byte, 1) != 1 ||
            ::read(from_helper_[0], &byte, 1) != 1) {
          throw std::runtime_error("calibration: helper thread gone");
        }
        acc += static_cast<unsigned char>(byte);
      }
      break;
    }
  }
  return acc;
}

void Calibration::burst() {
  const Clock::time_point start = Clock::now();
  std::uint32_t acc = 0;
  for (const Kernel kernel : profile_) {
    acc += run(kernel, 0x9e3779b97f4a7c15ULL + samples_.size());
  }
  const Clock::time_point end = Clock::now();
  // Keep the results observable so no kernel can be optimized away.
  table_[acc & (kTableWords - 1)] ^= 1u;
  last_ = end;
  samples_.push_back({seconds_since_epoch(start + (end - start) / 2),
                      std::chrono::duration<double, std::micro>(end - start)
                          .count()});
}

void Calibration::maybe_burst(double period_ms) {
  if (ms_between(last_, Clock::now()) >= period_ms) burst();
}

double Calibration::mean_factor() const { return factor_since(0); }

double Calibration::factor_since(std::size_t first) const {
  if (first >= samples_.size()) return 1.0;
  double total = 0.0;
  for (std::size_t i = first; i < samples_.size(); ++i) total += samples_[i].us;
  return reference_burst_us() /
         (total / static_cast<double>(samples_.size() - first));
}

double Calibration::factor_at(Clock::time_point t) const {
  const double at = seconds_since_epoch(t);
  const auto first = std::lower_bound(
      samples_.begin(), samples_.end(), at - kWindowS,
      [](const Sample& sample, double value) { return sample.at_s < value; });
  double total = 0.0;
  std::size_t count = 0;
  for (auto it = first; it != samples_.end() && it->at_s <= at + kWindowS;
       ++it) {
    total += it->us;
    ++count;
  }
  if (count == 0) return mean_factor();
  return reference_burst_us() / (total / static_cast<double>(count));
}

double Calibration::reference_seconds(Clock::time_point begin,
                                      Clock::time_point end) const {
  constexpr double kSliceS = 0.1;
  const double length = std::chrono::duration<double>(end - begin).count();
  double total = 0.0;
  for (double offset = 0.0; offset < length; offset += kSliceS) {
    const double slice = std::min(kSliceS, length - offset);
    const Clock::time_point mid =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset + slice / 2.0));
    total += slice * factor_at(mid);
  }
  return total;
}

Calibration& host_calibration() {
  static Calibration calibration(Clock::now());
  return calibration;
}

}  // namespace perfbench
