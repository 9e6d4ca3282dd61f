// Wire-path micro-bench: what one cross-partition delivery costs in
// encode time, decode time, and bytes on the transport's real send path
// (v2_batch): kDeliveryBatch frames coalescing `batch` deliveries behind a
// single 21-byte header with varint-delta addressing and dense values,
// decoded via the streaming BatchReader (validate + decode straight into a
// recycled Delivery, the engine's zero-copy ingestion shape).
//
// The corpus mirrors typical cross-partition traffic: mostly small ints
// and doubles, some short strings and small vectors, destination indices
// in a working set so the batch deltas stay small. Rows are emitted via
// bench_json.hpp for the BENCH_seed_vs_flat.json trajectory. The decoded
// deliveries are checksummed against the corpus, so the decode loop cannot
// be optimized away and must reproduce every address. Runs in well under a
// second by default, so it doubles as the `smoke_bench_wire` ctest entry
// (transport label).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/delivery.hpp"
#include "distrib/wire.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"

namespace {

using namespace df;
using distrib::wire::DecodeStatus;

std::vector<core::Delivery> make_corpus(std::size_t count,
                                        std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<core::Delivery> corpus(count);
  std::uint32_t index = 100;
  for (core::Delivery& d : corpus) {
    // Destinations drift through a small working set, as deliveries bound
    // for one partition block do.
    index += static_cast<std::uint32_t>(rng.next_below(8));
    d.to_index = index;
    d.to_port = static_cast<graph::Port>(rng.next_below(4));
    switch (rng.next_below(10)) {
      case 0:
        d.value = event::Value(std::string("update"));
        break;
      case 1: {
        std::vector<double> v(4);
        for (double& x : v) {
          x = rng.next_normal();
        }
        d.value = event::Value(std::move(v));
        break;
      }
      case 2:
      case 3:
      case 4:
        d.value = event::Value(rng.next_int(-1000, 1000));
        break;
      default:
        d.value = event::Value(rng.next_normal());
        break;
    }
  }
  return corpus;
}

double ns_since(std::chrono::steady_clock::time_point start,
                std::uint64_t ops) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(ops);
}

// Checksum over deliveries: folded over the decoded stream so the decode
// loop cannot be dead-code eliminated, and over the corpus to check it.
std::uint64_t fold(std::uint64_t acc, const core::Delivery& d) {
  return acc * 31 + d.to_index + d.to_port;
}

}  // namespace

int main(int argc, char** argv) {
  const support::CliFlags flags(argc, argv);
  const bool smoke = flags.get("smoke", false);
  const std::uint64_t count =
      flags.get("deliveries", smoke ? std::uint64_t{20000}
                                    : std::uint64_t{200000});
  const std::uint64_t reps = flags.get("reps", std::uint64_t{5});
  const std::uint64_t batch = flags.get("batch", std::uint64_t{64});
  flags.reject_unused();

  std::printf("wire-path micro-bench: per-delivery cost of batch frames\n");
  std::printf("%s\n", trace::machine_summary().c_str());

  const std::vector<core::Delivery> corpus = make_corpus(count, 71);
  const std::uint64_t ops = count * reps;

  std::vector<std::vector<std::uint8_t>> frames;
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < reps; ++r) {
    frames.clear();
    distrib::wire::BatchEncoder encoder;
    std::uint64_t seq = 0;
    for (const core::Delivery& d : corpus) {
      encoder.add(d);
      if (encoder.pending() == batch) {
        frames.emplace_back();
        encoder.finish(seq++, 3, frames.back());
      }
    }
    if (encoder.pending() > 0) {
      frames.emplace_back();
      encoder.finish(seq++, 3, frames.back());
    }
  }
  const double encode_ns = ns_since(start, ops);
  std::uint64_t bytes = 0;
  for (const auto& f : frames) {
    bytes += f.size();
  }
  const double bytes_per_delivery =
      static_cast<double>(bytes) / static_cast<double>(count);
  const auto frame_count = static_cast<std::uint64_t>(frames.size());

  // Decode the way the engine ingests: validate the frame (the reader
  // thread's bounds-checked walk), then stream deliveries into one
  // recycled Delivery via BatchReader.
  std::uint64_t checksum = 0;
  core::Delivery slot;
  start = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < reps; ++r) {
    checksum = 0;
    for (const auto& f : frames) {
      DF_CHECK(distrib::wire::validate_frame(f) == DecodeStatus::kOk,
               "v2 batch validate failed");
      distrib::wire::BatchReader reader;
      DF_CHECK(reader.open(f) == DecodeStatus::kOk, "v2 batch open failed");
      while (reader.remaining() > 0) {
        DF_CHECK(reader.next(slot) == DecodeStatus::kOk,
                 "v2 batch decode failed");
        checksum = fold(checksum, slot);
      }
    }
  }
  const double decode_ns = ns_since(start, ops);

  std::uint64_t corpus_checksum = 0;
  for (const core::Delivery& d : corpus) {
    corpus_checksum = fold(corpus_checksum, d);
  }
  DF_CHECK(checksum == corpus_checksum, "batches decoded a different corpus");

  support::Table table({"path", "encode_ns", "decode_ns", "bytes/delivery",
                        "frames"});
  table.add_row({"v2_batch", support::Table::num(encode_ns, 1),
                 support::Table::num(decode_ns, 1),
                 support::Table::num(bytes_per_delivery, 1),
                 support::Table::num(frame_count)});
  bench::JsonLine("wire", "v2_batch")
      .config("deliveries", count)
      .config("reps", reps)
      .config("batch", batch)
      .config("hw_concurrency",
              static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .metric("encode_ns_per_delivery", encode_ns)
      .metric("decode_ns_per_delivery", decode_ns)
      .metric("bytes_per_delivery", bytes_per_delivery)
      .metric("frames", frame_count)
      .emit();
  std::printf("%s", table.render().c_str());
  std::printf(
      "expected shape: v2_batch amortizes the 21-byte header and the length "
      "prefix over the whole batch, so a delivery costs its addressing "
      "(typically 2-3 bytes) plus its value; that per-delivery cost times "
      "remote traffic is the wire overhead bench_transport measures end to "
      "end at grain_ns=0.\n");
  return 0;
}
