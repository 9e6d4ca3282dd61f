// F3 — Figure 3 reproduction: step-by-step set membership.
//
// Replays the paper's 6-vertex example graph for two phases on one
// scheduler (trace::trace_schedule: both phases start up front, and a
// finished pair's last readied successor runs next, as on a one-worker
// engine whose environment runs ahead) with one scripted output pattern,
// printing the partial/full/ready membership after every transition in the
// style of Figure 3 (legend:  v  in no set,  <v>  partial only,  (v)  full
// only,  [v]  full and ready). The replay is deterministic, so every run
// prints the same trace. Exits 1 if the replay finished a different number
// of pairs than the sequential reference executed.
#include <cstdio>

#include "baseline/sequential.hpp"
#include "bench_json.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "model/sources.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"
#include "support/cli.hpp"
#include "trace/tracer.hpp"

int main(int argc, char** argv) {
  using namespace df;
  support::CliFlags(argc, argv).reject_unused();  // takes no flags

  std::printf("F3: execution trace of the paper's Figure 3 example\n");
  std::printf("legend:  v = no set, <v> = partial, (v) = full, "
              "[v] = full+ready\n\n");

  // Figure 3 narrative: in phase 1 both sources generate output; in phase 2
  // vertex 1 generates no output while vertex 2 does.
  const graph::Dag shape = graph::paper_figure3();
  std::printf("graph (DOT):\n%s\n", graph::to_dot(shape).c_str());

  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    if (shape.name(v) == "v1") {
      ids.push_back(b.add("v1", model::factory_of<model::ReplaySource>(
                                    std::vector<std::optional<event::Value>>{
                                        event::Value(1.0), std::nullopt})));
    } else if (shape.name(v) == "v2") {
      ids.push_back(b.add("v2", model::factory_of<model::ReplaySource>(
                                    std::vector<std::optional<event::Value>>{
                                        event::Value(2.0),
                                        event::Value(3.0)})));
    } else {
      ids.push_back(
          b.add(shape.name(v), model::factory_of<model::ForwardModule>()));
    }
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  const core::Program program = std::move(b).build(1);

  const std::vector<trace::Step> steps = trace::trace_schedule(program, 2);
  std::uint64_t finished = 0;
  int step = 0;
  for (const trace::Step& s : steps) {
    std::printf("step %d: %s\n", ++step, trace::render_step(s, 6).c_str());
    finished += s.transition == trace::Transition::kPairFinished ? 1 : 0;
  }
  baseline::SequentialExecutor sequential(program);
  sequential.run(2, nullptr);
  const core::ExecStats stats = sequential.stats();
  std::printf("executed pairs: %llu, messages: %llu, phases: %llu\n",
              static_cast<unsigned long long>(stats.executed_pairs),
              static_cast<unsigned long long>(stats.messages_delivered),
              static_cast<unsigned long long>(stats.phases_completed));
  bench::JsonLine("trace", "figure3")
      .config("phases", std::uint64_t{2})
      .metric("steps", static_cast<std::uint64_t>(steps.size()))
      .metric("executed_pairs", stats.executed_pairs)
      .metric("messages", stats.messages_delivered)
      .emit();
  if (finished != stats.executed_pairs) {
    std::fprintf(stderr,
                 "replay finished %llu pairs, sequential executed %llu\n",
                 static_cast<unsigned long long>(finished),
                 static_cast<unsigned long long>(stats.executed_pairs));
    return 1;
  }
  return 0;
}
