// Figure 3 reproduction: per-benchmark speedup of each software system
// versus the Parsec+pthreadCondVar baseline, plus the geometric mean --
// on both "machines" (STM backend = Westmere panel, HTM backend = Haswell
// panel).  Speedups are measured at each machine's maximum thread count,
// matching how the paper's bar chart summarizes its line plots.
//
// Usage: fig3_speedup [--quick] [--trials N] [--scale X]
#include <cstdio>
#include <vector>

#include "figure_common.h"

namespace {

using namespace tmcv;
using namespace tmcv::bench;

void run_panel(const char* panel, tm::Backend backend, bool haswell,
               const FigureOptions& opt) {
  const tm::Backend prior = tm::default_backend();
  tm::set_default_backend(backend);
  std::printf("\n== Figure 3(%s): speedup vs Parsec+pthreadCondVar ==\n",
              panel);
  std::printf("%-14s %10s %14s %20s\n", "benchmark", "threads",
              "Parsec+TMCondVar", "TMParsec+TMCondVar");
  std::vector<double> tmcv_speedups, tm_speedups;
  for (const parsec::KernelInfo& kernel : parsec::kernels()) {
    const auto& sweep =
        haswell ? kernel.threads_haswell : kernel.threads_westmere;
    const int threads = sweep.back();
    parsec::KernelConfig cfg;
    cfg.threads = threads;
    cfg.scale = opt.scale;
    cfg.seed = opt.seed;
    auto mean_time = [&](parsec::System sys) {
      const auto times =
          run_trials(static_cast<std::size_t>(opt.trials),
                     [&] { return kernel.run(sys, cfg).seconds; });
      return summarize(times).mean;
    };
    const double base = mean_time(parsec::System::Pthread);
    const double t_tmcv = mean_time(parsec::System::TmCv);
    const double t_tm = mean_time(parsec::System::Tm);
    const double s_tmcv = base / t_tmcv;
    const double s_tm = base / t_tm;
    tmcv_speedups.push_back(s_tmcv);
    tm_speedups.push_back(s_tm);
    std::printf("%-14s %10d %16.3f %20.3f\n", kernel.name.c_str(), threads,
                s_tmcv, s_tm);
    std::printf("CSV,Figure3-%s,%s,%d,%.4f,%.4f\n", panel,
                kernel.name.c_str(), threads, s_tmcv, s_tm);
  }
  std::printf("%-14s %10s %16.3f %20.3f   (geometric mean)\n", "GEOMEAN", "",
              geomean(tmcv_speedups), geomean(tm_speedups));
  std::printf("CSV,Figure3-%s,GEOMEAN,0,%.4f,%.4f\n", panel,
              geomean(tmcv_speedups), geomean(tm_speedups));
  tm::set_default_backend(prior);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse_options(argc, argv);
  run_panel("a-Westmere", tm::Backend::EagerSTM, /*haswell=*/false, opt);
  run_panel("b-Haswell", tm::Backend::HTM, /*haswell=*/true, opt);
  return 0;
}
