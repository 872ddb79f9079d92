// Shared table-rendering helpers for the reproduction benches.  Every
// bench prints the paper's reported numbers next to the measured ones so
// the shape comparison (who wins, by what factor) is visible at a glance.
#pragma once

#include <cstdio>
#include <string>

namespace art9::bench {

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void rule() { std::printf("%s\n", std::string(72, '-').c_str()); }

/// "paper vs measured" row for a numeric metric.
inline void paper_row(const char* metric, double paper, double measured, const char* unit) {
  const double ratio = paper != 0.0 ? measured / paper : 0.0;
  std::printf("  %-34s paper %12.4g %-10s measured %12.4g  (x%.2f)\n", metric, paper, unit,
              measured, ratio);
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

}  // namespace art9::bench
