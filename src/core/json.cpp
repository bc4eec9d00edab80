#include "core/json.hpp"

#include "common/json.hpp"
#include "core/report.hpp"

namespace tauhls::core {

namespace {

void writeLatencyRow(JsonWriter& w, const sim::LatencyRow& row,
                     const std::vector<double>& ps) {
  w.beginObject();
  w.key("best_ns").value(row.bestNs);
  w.key("worst_ns").value(row.worstNs);
  w.key("average_ns").beginArray();
  for (std::size_t i = 0; i < row.averageNs.size(); ++i) {
    w.beginObject();
    w.key("p").value(ps[i]);
    w.key("ns").value(row.averageNs[i]);
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

void writeAreaRow(JsonWriter& w, const synth::AreaRow& row) {
  w.beginObject();
  w.key("name").value(row.name);
  w.key("inputs").value(row.inputs);
  w.key("outputs").value(row.outputs);
  w.key("states").value(row.states);
  w.key("flip_flops").value(row.flipFlops);
  w.key("combinational_area").value(row.combArea);
  w.key("sequential_area").value(row.seqArea);
  w.endObject();
}

}  // namespace

std::string toJson(const FlowResult& result) {
  JsonWriter w;
  w.beginObject();
  w.key("design").value(result.scheduled.graph.name());
  w.key("operations").value(static_cast<int>(result.scheduled.graph.numOps()));
  w.key("clock_ns").value(result.scheduled.clockNs);
  w.key("allocation").value(formatAllocation(result.scheduled));

  w.key("controllers").beginArray();
  for (const fsm::UnitController& c : result.distributed.controllers) {
    w.beginObject();
    w.key("name").value(c.fsm.name());
    w.key("telescopic").value(c.telescopic);
    w.key("states").value(static_cast<int>(c.fsm.numStates()));
    w.key("flip_flops").value(c.fsm.flipFlopCount());
    w.key("operations").beginArray();
    for (dfg::NodeId v : c.ops) {
      w.value(result.scheduled.graph.node(v).name);
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.key("completion_latches").value(result.distributed.completionLatchCount());

  w.key("signal_optimization").beginObject();
  w.key("removed_outputs").value(result.signalStats.removedOutputs);
  w.key("kept_outputs").value(result.signalStats.keptOutputs);
  w.endObject();

  w.key("latency").beginObject();
  w.key("tau");
  writeLatencyRow(w, result.latency.tau, result.latency.ps);
  w.key("dist");
  writeLatencyRow(w, result.latency.dist, result.latency.ps);
  w.key("enhancement_percent").beginArray();
  for (double e : result.latency.enhancementPercent) w.value(e);
  w.endArray();
  w.endObject();

  if (result.distArea && result.centSyncArea) {
    w.key("area").beginObject();
    w.key("cent_sync");
    writeAreaRow(w, *result.centSyncArea);
    if (result.centFsmArea) {
      w.key("cent_fsm");
      writeAreaRow(w, *result.centFsmArea);
    }
    w.key("dist_total");
    writeAreaRow(w, result.distArea->total);
    w.key("dist_controllers").beginArray();
    for (const synth::AreaRow& row : result.distArea->perController) {
      writeAreaRow(w, row);
    }
    w.endArray();
    w.endObject();
  }
  w.endObject();
  return w.str();
}

}  // namespace tauhls::core
