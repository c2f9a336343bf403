// Ablation: HTM sensitivity to asynchronous aborts.
//
// Real hardware transactions die to interrupts, cache evictions, and TLB
// misses at rates that depend on the machine and the workload; the paper's
// Haswell numbers embed whatever rate that machine had.  Injecting
// synthetic chaos into the HTM emulation shows how gracefully the whole
// stack (condvar transactions included) degrades: aborted hardware
// attempts retry and eventually take the serial fallback; Hybrid absorbs
// chaos in software instead.
#include <cstdio>

#include "parsec/runner.h"
#include "tm/api.h"
#include "util/stats.h"

namespace {

using namespace tmcv;

struct Row {
  double seconds;
  std::uint64_t chaos_aborts;
  std::uint64_t serial_fallbacks;
};

Row run(const parsec::KernelInfo& kernel, tm::Backend backend,
        std::uint32_t chaos_per_million) {
  const tm::Backend prior = tm::default_backend();
  tm::set_default_backend(backend);
  tm::TxDescriptor::set_htm_chaos_per_million(chaos_per_million);
  tm::stats_reset();
  parsec::KernelConfig cfg;
  cfg.threads = 4;
  cfg.scale = 0.5;
  const auto times =
      run_trials(2, [&] { return kernel.run(parsec::System::Tm, cfg).seconds; });
  tm::TxDescriptor::set_htm_chaos_per_million(0);
  tm::set_default_backend(prior);
  const auto s = tm::stats_snapshot();
  return Row{summarize(times).mean, s.htm_chaos_aborts, s.serial_fallbacks};
}

}  // namespace

int main() {
  const parsec::KernelInfo* kernel = parsec::find_kernel("ferret");
  if (kernel == nullptr) return 1;
  std::printf("Ablation: HTM chaos sensitivity (ferret kernel, "
              "TMParsec+TMCondVar, 4 threads)\n\n");
  std::printf("%-10s %12s %14s %16s %18s\n", "backend", "chaos", "time (ms)",
              "chaos aborts", "serial fallbacks");
  for (tm::Backend b : {tm::Backend::HTM, tm::Backend::Hybrid}) {
    for (std::uint32_t rate : {0u, 10000u, 50000u, 200000u}) {
      const Row r = run(*kernel, b, rate);
      std::printf("%-10s %10.1f%% %14.1f %16llu %18llu\n", tm::to_string(b),
                  rate / 1e4, r.seconds * 1e3,
                  static_cast<unsigned long long>(r.chaos_aborts),
                  static_cast<unsigned long long>(r.serial_fallbacks));
    }
  }
  std::printf("\nHTM escalates to the serial lock as chaos grows; Hybrid "
              "absorbs the same chaos in software transactions and avoids "
              "serialization entirely.\n");
  return 0;
}
