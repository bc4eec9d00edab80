// Shared helpers for the bench binaries (paper-table regeneration harness).
#pragma once

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "dfg/benchmarks.hpp"

namespace tauhls::bench {

inline void banner(const std::string& title) {
  std::cout << "\n================================================================\n"
            << title
            << "\n================================================================\n\n";
}

/// Wall-clock milliseconds since `t0`.
inline double wallMs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// `v` with `decimals` digits after the point, as `std::fixed <<
/// std::setprecision(decimals)` prints it.
inline std::string fixed(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

/// Write a finished BENCH_*.json document and a newline to `path` and say
/// so on stdout; false (reported on stderr) when the file cannot be written.
inline bool writeJson(const std::string& path, const JsonWriter& w) {
  std::ofstream out(path, std::ios::trunc);
  out << w.str() << "\n";
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

/// The paper's Table 2 reference numbers (ns), for side-by-side printing.
struct PaperTable2Ref {
  const char* name;
  double tauBest, tauP9, tauP7, tauP5, tauWorst;
  double distBest, distP9, distP7, distP5, distWorst;
};

inline const PaperTable2Ref kPaperTable2[] = {
    {"3rd FIR", 45, 49.4, 57.1, 63.7, 75, 45, 49.2, 56.2, 61.8, 75},
    {"5th FIR", 75, 81.9, 92.5, 99.4, 105, 75, 77.9, 82.7, 86.3, 90},
    {"2nd IIR", 75, 80.7, 90.3, 97.5, 105, 75, 77.9, 82.7, 86.3, 90},
    {"3rd IIR", 75, 83.1, 94.7, 101.3, 135, 75, 80.6, 89.3, 95.9, 135},
    {"Diff.", 60, 68.6, 82.9, 93.8, 105, 60, 68.1, 80.7, 90.6, 105},
    {"AR-lattice", 120, 140.6, 165.6, 176.3, 180, 120, 134.2, 150.8, 160.2, 165},
};

}  // namespace tauhls::bench
