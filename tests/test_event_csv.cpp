// Tests for timestamped-event CSV ingestion.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/sequential.hpp"
#include "core/executor.hpp"
#include "graph/dag.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "spec/builder.hpp"
#include "spec/event_csv.hpp"
#include "support/check.hpp"

namespace df::spec {
namespace {

graph::Dag sensor_dag() {
  graph::Dag dag;
  dag.add_vertex("flood");
  dag.add_vertex("wind");
  return dag;
}

TEST(EventCsv, ParsesTypedRowsAndHeader) {
  const graph::Dag dag = sensor_dag();
  const auto events = parse_event_csv(
      "timestamp,vertex,port,type,value\n"
      "10,flood,0,double,0.5\n"
      "10,wind,0,int,12\n"
      "# comment line\n"
      "\n"
      "25,flood,0,bool,true\n"
      "30,wind,1,string,gusty\n",
      dag);
  ASSERT_EQ(events.size(), 4U);
  EXPECT_EQ(events[0].timestamp, 10);
  EXPECT_DOUBLE_EQ(events[0].event.value.as_double(), 0.5);
  EXPECT_EQ(events[1].event.vertex, dag.vertex("wind"));
  EXPECT_EQ(events[1].event.value.as_int(), 12);
  EXPECT_TRUE(events[2].event.value.as_bool());
  EXPECT_EQ(events[3].event.port, 1);
  EXPECT_EQ(events[3].event.value.as_string(), "gusty");
}

TEST(EventCsv, RejectsBadRows) {
  const graph::Dag dag = sensor_dag();
  EXPECT_THROW(parse_event_csv("10,flood,0,double\n", dag),
               support::check_error);  // missing field
  EXPECT_THROW(parse_event_csv("10,unknown,0,double,1\n", dag),
               support::check_error);  // unknown vertex
  EXPECT_THROW(parse_event_csv("10,flood,0,widget,1\n", dag),
               support::check_error);  // unknown type
  EXPECT_THROW(parse_event_csv("10,flood,0,int,1.5\n", dag),
               support::check_error);  // bad int
  EXPECT_THROW(
      parse_event_csv("10,flood,0,double,1\n5,flood,0,double,1\n", dag),
      support::check_error);  // decreasing timestamps
  EXPECT_THROW(parse_event_csv("timestamp,vertex,port,type,value\n"
                               "1O,flood,0,double,1.5\n"
                               "20,flood,0,double,2.5\n",
                               dag),
               support::check_error);  // typo'd timestamp after the header
  EXPECT_THROW(parse_event_csv("timestamp,vertex,port,type,value\n"
                               "timestamp,vertex,port,type,value\n"
                               "20,flood,0,double,2.5\n",
                               dag),
               support::check_error);  // second header row
}

TEST(EventCsv, AssembleBatchesGroupsEqualTimestamps) {
  const graph::Dag dag = sensor_dag();
  const auto events = parse_event_csv(
      "10,flood,0,double,1\n"
      "10,wind,0,double,2\n"
      "20,flood,0,double,3\n",
      dag);
  const auto batches = assemble_batches(events);
  ASSERT_EQ(batches.size(), 2U);
  EXPECT_EQ(batches[0].size(), 2U);
  EXPECT_EQ(batches[1].size(), 1U);
}

TEST(EventCsv, RoundTripsThroughWriter) {
  const graph::Dag dag = sensor_dag();
  auto events = parse_event_csv(
      "10,flood,0,double,0.125\n"
      "12,wind,0,int,-3\n"
      "12,wind,1,bool,false\n"
      "15,flood,0,string,high\n",
      dag);
  const event::Value edge_values[] = {
      event::Value(std::numeric_limits<double>::denorm_min()),
      event::Value(1e-310),
      event::Value(0.0),
      event::Value(-0.0),
      event::Value(std::numeric_limits<double>::infinity()),
      event::Value(-std::numeric_limits<double>::infinity()),
      event::Value(std::numeric_limits<double>::quiet_NaN()),
      event::Value(std::numeric_limits<std::int64_t>::min()),
      event::Value(std::numeric_limits<std::int64_t>::max()),
      event::Value(std::string()),
  };
  for (const event::Value& value : edge_values) {
    events.push_back({20, {dag.vertex("wind"), 2, value}});
  }
  std::ostringstream out;
  write_event_csv(out, events, dag);
  const auto reparsed = parse_event_csv(out.str(), dag);
  ASSERT_EQ(reparsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(reparsed[i].timestamp, events[i].timestamp);
    EXPECT_EQ(reparsed[i].event.vertex, events[i].event.vertex);
    EXPECT_EQ(reparsed[i].event.port, events[i].event.port);
    const event::Value& want = events[i].event.value;
    const event::Value& got = reparsed[i].event.value;
    if (want.is_double()) {  // by bit pattern: NaN and -0.0 included
      ASSERT_TRUE(got.is_double()) << "row " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.as_double()),
                std::bit_cast<std::uint64_t>(want.as_double()))
          << "row " << i << ": " << want.as_double() << " read back as "
          << got.as_double();
    } else {
      EXPECT_EQ(got, want) << "row " << i;
    }
  }
}

TEST(EventCsv, WriterRefusesStringsItCannotReadBack) {
  const graph::Dag dag = sensor_dag();
  for (const char* text :
       {" padded ", "x\r", "a,b", "line\nbreak", "\tlead", "trail\v"}) {
    const std::vector<event::TimestampedEvent> events = {
        {1, {dag.vertex("flood"), 0, event::Value(text)}}};
    std::ostringstream out;
    EXPECT_THROW(write_event_csv(out, events, dag), support::check_error)
        << "string value '" << text << "'";
  }
}

TEST(EventCsv, WriterRefusesVertexNamesItCannotReadBack) {
  // Spec ids may hold commas and padding, which the reader would split or
  // trim away.
  graph::Dag dag;
  dag.add_vertex("a,b");
  dag.add_vertex(" padded");
  for (const char* name : {"a,b", " padded"}) {
    const std::vector<event::TimestampedEvent> events = {
        {1, {dag.vertex(name), 0, event::Value(1.5)}}};
    std::ostringstream out;
    EXPECT_THROW(write_event_csv(out, events, dag), support::check_error)
        << "vertex name '" << name << "'";
  }
}

TEST(EventCsv, DrivesAnExecutorEndToEnd) {
  spec::GraphBuilder b;
  const auto sensor =
      b.add("sensor", model::factory_of<model::ExternalPassthroughSource>());
  const auto avg = b.add(
      "avg", model::factory_of<model::MovingAverageModule>(std::size_t{2}));
  b.connect(sensor, avg);
  const core::Program program = std::move(b).build(1);

  const auto events = parse_event_csv(
      "100,sensor,0,double,2\n"
      "200,sensor,0,double,4\n"
      "300,sensor,0,double,6\n",
      program.dag);
  core::VectorFeed feed(assemble_batches(events));
  baseline::SequentialExecutor exec(program);
  exec.run(3, &feed);
  const auto records = exec.sinks().canonical();
  ASSERT_EQ(records.size(), 3U);
  EXPECT_DOUBLE_EQ(records[0].value.as_double(), 2.0);
  EXPECT_DOUBLE_EQ(records[1].value.as_double(), 3.0);
  EXPECT_DOUBLE_EQ(records[2].value.as_double(), 5.0);
}

TEST(EventCsv, MissingFileFails) {
  const graph::Dag dag = sensor_dag();
  EXPECT_THROW(load_event_csv_file("/no/such/file.csv", dag),
               support::check_error);
}

TEST(EventCsv, DirectoryPathFails) {
  // A directory opens like a file but cannot be read: that is an error, not
  // an empty event file.
  const graph::Dag dag = sensor_dag();
  EXPECT_THROW(load_event_csv_file(::testing::TempDir(), dag),
               support::check_error);
}

}  // namespace
}  // namespace df::spec
