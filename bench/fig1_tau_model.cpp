// Figure 1 substrate: the telescopic arithmetic unit itself.  Characterizes
// the bit-level completion generators (the "C generator" box of Fig. 1):
// measured SD-hit ratio P versus the certified SD bound, for ripple adders
// and array multipliers under three operand distributions, with the
// conservativeness contract (no false completion, ever) checked on every
// trial.

#include "bench_util.hpp"
#include "bitlevel/measure.hpp"

int main() {
  using namespace tauhls;
  using bitlevel::OperandDistribution;
  bench::banner("Fig. 1 -- telescopic unit model: completion generators and P");

  const long trials = 100000;

  std::cout << "16-bit ripple adder, C = 1 iff no propagate run >= maxRun:\n";
  core::TextTable addT({"maxRun", "SD bound", "P uniform", "P low-mag",
                        "P small-delta", "false completions"});
  for (int maxRun : {2, 4, 6, 8, 12, 16}) {
    bitlevel::AdderCompletionGenerator gen(16, maxRun);
    auto u = measureAdderP(gen, OperandDistribution::Uniform, trials);
    auto l = measureAdderP(gen, OperandDistribution::LowMagnitude, trials);
    auto d = measureAdderP(gen, OperandDistribution::SmallDelta, trials);
    addT.addRow({std::to_string(maxRun), std::to_string(gen.shortDelayBound()),
                 bench::fixed(u.p, 3), bench::fixed(l.p, 3),
                 bench::fixed(d.p, 3),
                 std::to_string(u.falseCompletions + l.falseCompletions +
                                d.falseCompletions)});
  }
  std::cout << addT.toString() << "\n";

  std::cout << "16-bit array multiplier, C = 1 iff msb(a)+msb(b) <= budget:\n";
  core::TextTable mulT({"budget", "SD bound", "P uniform", "P low-mag",
                        "P small-delta", "false completions"});
  for (int budget : {8, 12, 16, 20, 24, 28}) {
    bitlevel::MultiplierCompletionGenerator gen(16, budget);
    auto u = measureMultiplierP(gen, OperandDistribution::Uniform, trials);
    auto l = measureMultiplierP(gen, OperandDistribution::LowMagnitude, trials);
    auto d = measureMultiplierP(gen, OperandDistribution::SmallDelta, trials);
    mulT.addRow({std::to_string(budget), std::to_string(gen.shortDelayBound()),
                 bench::fixed(u.p, 3), bench::fixed(l.p, 3),
                 bench::fixed(d.p, 3),
                 std::to_string(u.falseCompletions + l.falseCompletions +
                                d.falseCompletions)});
  }
  std::cout << mulT.toString() << "\n";
  std::cout << "Shape: P rises monotonically with the SD bound; realistic "
               "(low-magnitude) data reaches the paper's P = 0.5..0.9 regime "
               "at SD/LD ratios near the paper's 15/20 ns.\n";
  return 0;
}
