// Steady-state allocation counts on the hand-off paths that recycle their
// buffers: the engine's phase start, which lays each signal-source unit's
// bundle out in the buffer its executed pair gave back (DESIGN.md, "Unit
// scheduling"), and the in-process channel, whose frames circulate between
// send() and recv() (DESIGN.md, "Real transport"). Each test counts
// operator new on its own thread after a warm-up; both must read 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "distrib/channel.hpp"
#include "model/detectors.hpp"
#include "model/logic.hpp"
#include "model/sources.hpp"
#include "spec/builder.hpp"
#include "support/rng.hpp"

// --- allocation counting hook ----------------------------------------------
//
// The replacements stay out of line: GCC otherwise inlines their malloc and
// free into callers' new/delete expressions and reports the pairing as
// -Wmismatched-new-delete.

namespace {
thread_local std::uint64_t g_thread_allocs = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc{};
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  ++g_thread_allocs;
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace df {
namespace {

/// The shape of examples/specs/events_smoke.xml: four external streams,
/// each through zscore -> threshold, into one majority vote.
core::Program events_program() {
  constexpr std::size_t kStreams = 4;
  spec::GraphBuilder b;
  std::vector<graph::VertexId> alarms;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::string tag = std::to_string(s);
    const graph::VertexId sensor = b.add(
        "sensor" + tag, model::factory_of<model::ExternalPassthroughSource>());
    const graph::VertexId z = b.add(
        "zscore" + tag, model::factory_of<model::ZScoreDetector>(32, 2.5, 8));
    alarms.push_back(b.add("alarm" + tag,
                           model::factory_of<model::ThresholdDetector>(0.0)));
    b.connect(sensor, z);
    b.connect(z, alarms.back());
  }
  const graph::VertexId vote =
      b.add("vote", model::factory_of<model::MajorityGate>(kStreams, 2));
  for (std::size_t s = 0; s < kStreams; ++s) {
    b.connect(alarms[s], 0, vote, static_cast<graph::Port>(s));
  }
  return std::move(b).build(20261020);
}

// The thread starting phases allocates nothing once its buffers have grown
// to the largest batches, also on the plan the engine re-cut to: every
// source unit's bundle comes back from the phase slot it was swapped into.
TEST(SteadyStateAllocations, EventPhaseStartsAllocateNothing) {
  const core::Program program = events_program();
  const core::ProgramInstance names(program);
  // Each sensor reports in about 60% of the phases, at least one a phase.
  support::Rng rng(7);
  std::vector<std::vector<event::ExternalEvent>> batches(64);
  for (std::vector<event::ExternalEvent>& batch : batches) {
    while (batch.empty()) {
      for (std::uint32_t s = 1; s <= names.source_count(); ++s) {
        if (rng.next_bernoulli(0.6)) {
          batch.push_back(event::ExternalEvent{names.original_id(s), 0,
                                               rng.next_normal()});
        }
      }
    }
  }
  core::EngineOptions options;
  options.threads = 2;
  options.max_inflight_phases = 16;
  core::Engine engine(program, options);
  engine.start();
  // Well past the re-cut, which this program's rarely active alarm units
  // put off to its 2,048-phase bound, and the slots' first uses on the new
  // plan.
  constexpr std::size_t kWarmup = 5000;
  constexpr std::size_t kCounted = 3000;
  for (std::size_t p = 0; p < kWarmup; ++p) {
    engine.start_phase(batches[p % batches.size()]);
  }
  const std::uint64_t before = g_thread_allocs;
  for (std::size_t p = kWarmup; p < kWarmup + kCounted; ++p) {
    engine.start_phase(batches[p % batches.size()]);
  }
  const std::uint64_t allocs = g_thread_allocs - before;
  engine.finish();
  EXPECT_EQ(allocs, 0U) << "over " << kCounted << " event-carrying phases";
  EXPECT_EQ(engine.stats().phases_completed, kWarmup + kCounted);
}

// Round trips through an in-process channel with a reused receive buffer
// allocate nothing: recv() swaps the frame with the caller's buffer, and
// send() copies into the buffer recv() took.
TEST(SteadyStateAllocations, InProcessChannelRoundTripsAllocateNothing) {
  distrib::InProcessChannel channel(4);
  const std::vector<std::uint8_t> frame(200, 0x5a);
  std::vector<std::uint8_t> received;
  std::size_t intact = 0;
  // Fill the channel to its capacity now and then, so the queue's ring
  // reaches its size during the warm-up. No assertion runs in the counted
  // loop: only the channel may allocate there.
  const auto round_trip = [&](std::size_t depth) {
    for (std::size_t i = 0; i < depth; ++i) {
      channel.send(frame);
    }
    for (std::size_t i = 0; i < depth; ++i) {
      intact += channel.recv(received) && received == frame ? 1 : 0;
    }
  };
  for (std::size_t i = 0; i < 64; ++i) {
    round_trip(1 + i % 4);
  }
  const std::uint64_t before = g_thread_allocs;
  for (std::size_t i = 0; i < 10000; ++i) {
    round_trip(1 + i % 4);
  }
  const std::uint64_t allocs = g_thread_allocs - before;
  EXPECT_EQ(allocs, 0U) << "over 25,000 frames";
  EXPECT_EQ(intact, 160U + 25000U) << "a frame arrived damaged or not at all";
  channel.close_send();
  EXPECT_FALSE(channel.recv(received));
}

}  // namespace
}  // namespace df
