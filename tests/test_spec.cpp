// Tests for specification parsing, the module registry, and the builder.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "baseline/sequential.hpp"
#include "core/engine.hpp"
#include "model/registry.hpp"
#include "spec/builder.hpp"
#include "spec/spec.hpp"
#include "support/check.hpp"
#include "trace/serializability.hpp"

namespace df::spec {
namespace {

constexpr const char* kSpecText = R"(<?xml version="1.0"?>
<computation>
  <simulation timesteps="240" seed="42" threads="3" max_inflight="16"
              machines="3"/>
  <graph>
    <vertex id="temp"  type="temperature" base="20" amplitude="8"
            period="24" noise="0.5" report_delta="0.5"/>
    <vertex id="avg"   type="moving_average" window="6"/>
    <vertex id="alarm" type="threshold" threshold="24"/>
    <edge from="temp" to="avg"/>
    <edge from="avg"  to="alarm"/>
  </graph>
</computation>)";

TEST(Spec, ParsesSimulationAndGraph) {
  const ComputationSpec spec = parse_spec(kSpecText);
  EXPECT_EQ(spec.simulation.timesteps, 240U);
  EXPECT_EQ(spec.simulation.seed, 42U);
  EXPECT_EQ(spec.simulation.threads, 3U);
  EXPECT_EQ(spec.simulation.max_inflight_phases, 16U);
  EXPECT_EQ(spec.simulation.machines, 3U);
  ASSERT_EQ(spec.vertices.size(), 3U);
  EXPECT_EQ(spec.vertices[0].id, "temp");
  EXPECT_EQ(spec.vertices[0].type, "temperature");
  EXPECT_EQ(spec.vertices[0].params.at("amplitude"), "8");
  ASSERT_EQ(spec.edges.size(), 2U);
}

TEST(Spec, AutoAssignsInputPorts) {
  const ComputationSpec spec = parse_spec(R"(<computation><graph>
    <vertex id="a" type="counter"/>
    <vertex id="b" type="counter"/>
    <vertex id="s" type="sum"/>
    <edge from="a" to="s"/>
    <edge from="b" to="s"/>
  </graph></computation>)");
  EXPECT_EQ(spec.edges[0].to_port, 0);
  EXPECT_EQ(spec.edges[1].to_port, 1);  // next free port
  EXPECT_EQ(spec.simulation.machines, 1U);  // default: single machine
}

TEST(Spec, ExplicitPortsRespected) {
  const ComputationSpec spec = parse_spec(R"(<computation><graph>
    <vertex id="a" type="counter"/>
    <vertex id="s" type="sum"/>
    <edge from="a" from_port="2" to="s" to_port="3"/>
  </graph></computation>)");
  EXPECT_EQ(spec.edges[0].from_port, 2);
  EXPECT_EQ(spec.edges[0].to_port, 3);
}

TEST(Spec, ToProgramRunsEndToEnd) {
  const ComputationSpec spec = parse_spec(kSpecText);
  const core::Program program = spec.to_program();
  core::Engine engine(program, {.threads = spec.simulation.threads});
  const auto report = trace::check_against_sequential(
      program, engine, spec.simulation.timesteps);
  EXPECT_TRUE(report.equivalent) << report.summary();
  EXPECT_GT(report.reference_records, 0U);
}

TEST(Spec, RoundTripsThroughXml) {
  const ComputationSpec spec = parse_spec(kSpecText);
  const ComputationSpec again = parse_spec(spec.to_xml_text());
  EXPECT_EQ(again.simulation.timesteps, spec.simulation.timesteps);
  EXPECT_EQ(again.simulation.machines, spec.simulation.machines);
  EXPECT_EQ(again.vertices.size(), spec.vertices.size());
  EXPECT_EQ(again.edges.size(), spec.edges.size());
  EXPECT_EQ(again.vertices[0].params, spec.vertices[0].params);
}

TEST(Spec, LoadSpecFileReadsDisk) {
  const std::string path = ::testing::TempDir() + "df_spec_test.xml";
  {
    std::ofstream out(path);
    out << kSpecText;
  }
  const ComputationSpec spec = load_spec_file(path);
  EXPECT_EQ(spec.vertices.size(), 3U);
  std::remove(path.c_str());
  EXPECT_THROW(load_spec_file(path), support::check_error);
}

TEST(Spec, LoadSpecFileRejectsDirectory) {
  // A directory opens like a file but cannot be read: that is an error, not
  // an empty specification.
  EXPECT_THROW(load_spec_file(::testing::TempDir()), support::check_error);
}

TEST(Spec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_spec("<bogus/>"), support::check_error);
  EXPECT_THROW(parse_spec("<computation/>"), support::check_error);
  EXPECT_THROW(parse_spec("<computation><graph/></computation>"),
               support::check_error);
  EXPECT_THROW(parse_spec(R"(<computation><graph>
      <vertex id="a" type="counter"/>
      <widget/>
    </graph></computation>)"),
               support::check_error);
}

// A <simulation> attribute that is present but malformed is an error naming
// it, never a silent default. These specs are only parsed, never run.
void expect_simulation_attribute_rejected(const std::string& key,
                                          const std::string& value) {
  const std::string text = "<computation><simulation " + key + "=\"" +
                           value +
                           "\"/><graph><vertex id=\"a\" type=\"counter\"/>"
                           "</graph></computation>";
  try {
    parse_spec(text);
    ADD_FAILURE() << key << "=\"" << value << "\" was accepted";
  } catch (const support::check_error& error) {
    EXPECT_NE(std::string(error.what()).find("'" + key + "'"),
              std::string::npos)
        << error.what();
  }
}

TEST(SpecSimulation, MalformedTimestepsIsAnError) {
  expect_simulation_attribute_rejected("timesteps", "ten");
}

TEST(SpecSimulation, MalformedSeedIsAnError) {
  expect_simulation_attribute_rejected("seed", "x");
}

TEST(SpecSimulation, MalformedThreadsIsAnError) {
  expect_simulation_attribute_rejected("threads", "four");
  expect_simulation_attribute_rejected("threads", " -1");
}

TEST(SpecSimulation, MalformedMaxInflightIsAnError) {
  expect_simulation_attribute_rejected("max_inflight", "lots");
}

TEST(SpecSimulation, MalformedMachinesIsAnError) {
  expect_simulation_attribute_rejected("machines", "two");
}

TEST(SpecSimulation, AbsentAttributesKeepTheirDefaults) {
  const ComputationSpec spec = parse_spec(R"(<computation><simulation/>
    <graph><vertex id="a" type="counter"/></graph></computation>)");
  EXPECT_EQ(spec.simulation.timesteps, 100U);
  EXPECT_EQ(spec.simulation.seed, 14675309U);
  EXPECT_EQ(spec.simulation.threads, 2U);
  EXPECT_EQ(spec.simulation.max_inflight_phases, 64U);
  EXPECT_EQ(spec.simulation.machines, 1U);
}

TEST(Spec, UnknownModuleTypeFails) {
  const ComputationSpec spec = parse_spec(R"(<computation><graph>
    <vertex id="a" type="definitely_not_registered"/>
  </graph></computation>)");
  EXPECT_THROW(spec.to_program(), support::check_error);
}

TEST(Registry, BuiltinHasDocumentedTypes) {
  const model::Registry& registry = model::Registry::builtin();
  for (const char* name :
       {"counter", "gaussian", "temperature", "transactions",
        "moving_average", "zscore", "threshold", "and", "or", "kmeans",
        "busy", "forward", "join", "expectation", "forecast"}) {
    EXPECT_TRUE(registry.has_type(name)) << name;
  }
  EXPECT_FALSE(registry.has_type("nope"));
  EXPECT_GE(registry.type_names().size(), 30U);
}

TEST(Registry, BadParameterValueFails) {
  const model::Registry& registry = model::Registry::builtin();
  const model::Params params(
      std::map<std::string, std::string>{{"window", "abc"}});
  EXPECT_THROW(registry.build("moving_average", params, 1),
               support::check_error);
}

TEST(Registry, RequiredParameterEnforced) {
  const model::Registry& registry = model::Registry::builtin();
  EXPECT_THROW(registry.build("threshold", model::Params{}, 1),
               support::check_error);
}

TEST(Registry, DuplicateRegistrationFails) {
  model::Registry registry;
  registry.register_type("x", [](const model::Params&, std::size_t) {
    return model::factory_of<model::LambdaModule>(
        [](model::PhaseContext&) {});
  });
  EXPECT_THROW(registry.register_type(
                   "x",
                   [](const model::Params&, std::size_t) {
                     return model::factory_of<model::LambdaModule>(
                         [](model::PhaseContext&) {});
                   }),
               support::check_error);
}

TEST(Builder, ChainsAndBuilds) {
  GraphBuilder b;
  const auto a = b.add_lambda("a", [](model::PhaseContext& ctx) {
    ctx.emit(0, static_cast<std::int64_t>(ctx.phase()));
  });
  const auto c = b.add_lambda("c", [](model::PhaseContext& ctx) {
    if (ctx.has_input(0)) {
      ctx.emit(0, ctx.input(0));
    }
  });
  b.connect(a, c);
  const core::Program program = std::move(b).build(5);
  baseline::SequentialExecutor exec(program);
  exec.run(3, nullptr);
  EXPECT_EQ(exec.sinks().size(), 3U);
}

TEST(Builder, CopyBuildAllowsReuse) {
  GraphBuilder b;
  b.add("src", model::factory_of<model::LambdaModule>(
                   [](model::PhaseContext& ctx) { ctx.emit(0, 1.0); }));
  const core::Program p1 = b.build(1);
  const core::Program p2 = b.build(2);
  EXPECT_EQ(p1.dag.vertex_count(), p2.dag.vertex_count());
  EXPECT_NE(p1.seed, p2.seed);
}

TEST(Builder, RejectsNullFactory) {
  GraphBuilder b;
  EXPECT_THROW(b.add("bad", model::ModuleFactory{}), support::check_error);
}

}  // namespace
}  // namespace df::spec
