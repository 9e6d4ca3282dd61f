// F3 — Figure 3 reproduction: step-by-step set membership.
//
// Runs the paper's 6-vertex example graph for two phases with a single
// computation thread and one scripted output pattern, printing the
// partial/full/ready membership after every transition in the style of
// Figure 3 (legend:  v  in no set,  <v>  partial only,  (v)  full only,
// [v]  full and ready).
#include <cstdio>

#include "bench_json.hpp"
#include "core/engine.hpp"
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

  trace::Tracer tracer;
  core::EngineOptions options;
  options.threads = 1;  // deterministic single-worker interleaving
  options.observer = &tracer;
  core::Engine engine(program, options);
  engine.run(2, nullptr);

  int step = 0;
  for (const auto& s : tracer.steps()) {
    std::printf("step %d: %s\n", ++step,
                trace::Tracer::render_step(s, 6).c_str());
  }
  std::printf("executed pairs: %llu, messages: %llu, phases: %llu\n",
              static_cast<unsigned long long>(engine.stats().executed_pairs),
              static_cast<unsigned long long>(
                  engine.stats().messages_delivered),
              static_cast<unsigned long long>(
                  engine.stats().phases_completed));
  bench::JsonLine("trace", "figure3")
      .config("phases", std::uint64_t{2})
      .metric("steps", static_cast<std::uint64_t>(tracer.steps().size()))
      .metric("executed_pairs", engine.stats().executed_pairs)
      .metric("messages", engine.stats().messages_delivered)
      .emit();
  return 0;
}
