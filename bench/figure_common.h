// Shared machinery for the figure-reproduction benches: run the kernel
// grid (kernel x system x threads x trials) and print both a human-readable
// table shaped like the paper's figures and machine-readable CSV.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "parsec/runner.h"
#include "tm/api.h"
#include "util/stats.h"

namespace tmcv::bench {

struct FigureOptions {
  int trials = 3;         // paper: average of five trials
  double scale = 1.0;     // input-size multiplier
  std::uint64_t seed = 42;
  bool quick = false;     // --quick: 1 trial at reduced scale (CI smoke)
};

inline FigureOptions parse_options(int argc, char** argv) {
  FigureOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
      opt.trials = 1;
      opt.scale = 0.2;
    } else if (arg == "--trials" && i + 1 < argc) {
      opt.trials = std::atoi(argv[++i]);
    } else if (arg == "--scale" && i + 1 < argc) {
      opt.scale = std::atof(argv[++i]);
    }
  }
  return opt;
}

struct SeriesPoint {
  int threads = 0;
  double mean_seconds = 0.0;
  double stddev_seconds = 0.0;
};

struct Series {
  parsec::System system;
  std::vector<SeriesPoint> points;
};

inline Series run_series(const parsec::KernelInfo& kernel,
                         parsec::System system,
                         const std::vector<int>& thread_counts,
                         const FigureOptions& opt) {
  Series series;
  series.system = system;
  for (int threads : thread_counts) {
    parsec::KernelConfig cfg;
    cfg.threads = threads;
    cfg.scale = opt.scale;
    cfg.seed = opt.seed;
    const auto times = run_trials(static_cast<std::size_t>(opt.trials), [&] {
      return kernel.run(system, cfg).seconds;
    });
    const Summary s = summarize(times);
    series.points.push_back(SeriesPoint{threads, s.mean, s.stddev});
  }
  return series;
}

// Print one figure panel: time-in-seconds vs threads for the three systems,
// the same series the paper's sub-figures plot.
inline void print_panel(const std::string& figure, const std::string& kernel,
                        const std::vector<int>& thread_counts,
                        const std::vector<Series>& series) {
  std::printf("\n== %s: %s (time in seconds vs threads) ==\n", figure.c_str(),
              kernel.c_str());
  std::printf("%8s", "threads");
  for (const Series& s : series)
    std::printf("  %26s", parsec::to_string(s.system));
  std::printf("\n");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%8d", thread_counts[i]);
    for (const Series& s : series)
      std::printf("  %20.4f +-%3.3f", s.points[i].mean_seconds,
                  s.points[i].stddev_seconds);
    std::printf("\n");
  }
  // CSV block for plotting tools.
  for (const Series& s : series)
    for (const SeriesPoint& p : s.points)
      std::printf("CSV,%s,%s,%s,%d,%.6f,%.6f\n", figure.c_str(),
                  kernel.c_str(), parsec::to_string(s.system), p.threads,
                  p.mean_seconds, p.stddev_seconds);
}

// Run one whole figure (all kernels, all systems) under a TM backend.
inline void run_figure(const std::string& figure_name, tm::Backend backend,
                       bool haswell_threads, const FigureOptions& opt) {
  const tm::Backend prior = tm::default_backend();
  tm::set_default_backend(backend);
  std::printf("%s -- internal TM backend: %s, trials=%d, scale=%.2f\n",
              figure_name.c_str(), tm::to_string(backend), opt.trials,
              opt.scale);
  for (const parsec::KernelInfo& kernel : parsec::kernels()) {
    const std::vector<int>& threads =
        haswell_threads ? kernel.threads_haswell : kernel.threads_westmere;
    std::vector<Series> series;
    for (parsec::System sys :
         {parsec::System::Pthread, parsec::System::TmCv, parsec::System::Tm})
      series.push_back(run_series(kernel, sys, threads, opt));
    print_panel(figure_name, kernel.name, threads, series);
  }
  tm::set_default_backend(prior);
}

}  // namespace tmcv::bench
