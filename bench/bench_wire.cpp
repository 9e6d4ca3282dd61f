// Wire-path micro-bench: what one cross-partition delivery costs in
// encode time, decode time, and bytes, for each framing of wire v2:
//
//   * v2_single — dense value encoding (varint ints, u8-length short
//     strings) but one delivery per frame behind a 21-byte header, decoded
//     through the Frame-level decoder;
//   * v2_batch — the transport's real send path: kDeliveryBatch frames
//     coalescing `batch` deliveries behind a single header with
//     varint-delta addressing, decoded via the streaming BatchReader
//     (validate + decode straight into a recycled Delivery, the engine's
//     zero-copy ingestion shape).
//
// The corpus mirrors typical cross-partition traffic: mostly small ints
// and doubles, some short strings and small vectors, destination indices
// in a working set so the batch deltas stay small. Rows are emitted via
// bench_json.hpp for the BENCH_seed_vs_flat.json trajectory; the
// single-vs-batch bytes_per_delivery and decode ratios are the numbers the
// trajectory tracks. Runs in well under a second by default, so it doubles
// as the `smoke_bench_wire` ctest entry (transport label).
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

struct Row {
  std::string name;
  double encode_ns = 0;
  double decode_ns = 0;
  double bytes_per_delivery = 0;
  std::uint64_t frames = 0;
};

// Checksum over decoded deliveries so the decode loops cannot be dead-code
// eliminated, compared across rows so both paths provably decoded the same
// corpus.
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

  std::printf("wire-path micro-bench: per-delivery cost, single vs batch\n");
  std::printf("%s\n", trace::machine_summary().c_str());

  const std::vector<core::Delivery> corpus = make_corpus(count, 71);
  const std::uint64_t ops = count * reps;
  std::vector<Row> rows;
  std::vector<std::uint64_t> checksums;

  // --- v2_single: one frame per delivery, dense values ---------------------
  {
    Row row{"v2_single"};
    std::vector<std::vector<std::uint8_t>> frames(corpus.size());
    auto start = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        distrib::wire::encode_delivery(i, 3, corpus[i], frames[i]);
      }
    }
    row.encode_ns = ns_since(start, ops);
    std::uint64_t bytes = 0;
    for (const auto& f : frames) {
      bytes += f.size();
    }
    row.bytes_per_delivery =
        static_cast<double>(bytes) / static_cast<double>(count);
    row.frames = count;

    std::uint64_t checksum = 0;
    distrib::wire::Frame decoded;
    start = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
      checksum = 0;
      for (const auto& f : frames) {
        DF_CHECK(distrib::wire::decode_frame(f, decoded) == DecodeStatus::kOk,
                 "v2 decode failed");
        checksum = fold(checksum, decoded.delivery);
      }
    }
    row.decode_ns = ns_since(start, ops);
    checksums.push_back(checksum);
    rows.push_back(row);
  }

  // --- v2_batch: the transport's real path ---------------------------------
  {
    Row row{"v2_batch"};
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
    row.encode_ns = ns_since(start, ops);
    std::uint64_t bytes = 0;
    for (const auto& f : frames) {
      bytes += f.size();
    }
    row.bytes_per_delivery =
        static_cast<double>(bytes) / static_cast<double>(count);
    row.frames = frames.size();

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
    row.decode_ns = ns_since(start, ops);
    checksums.push_back(checksum);
    rows.push_back(row);
  }

  for (const std::uint64_t checksum : checksums) {
    DF_CHECK(checksum == checksums.front(),
             "wire paths decoded different corpora");
  }

  support::Table table({"path", "encode_ns", "decode_ns", "bytes/delivery",
                        "frames"});
  const double single_bytes = rows.front().bytes_per_delivery;
  for (const Row& row : rows) {
    table.add_row({row.name, support::Table::num(row.encode_ns, 1),
                   support::Table::num(row.decode_ns, 1),
                   support::Table::num(row.bytes_per_delivery, 1),
                   support::Table::num(row.frames)});
    bench::JsonLine("wire", row.name)
        .config("deliveries", count)
        .config("reps", reps)
        .config("batch", batch)
        .config("hw_concurrency",
                static_cast<std::uint64_t>(
                    std::thread::hardware_concurrency()))
        .metric("encode_ns_per_delivery", row.encode_ns)
        .metric("decode_ns_per_delivery", row.decode_ns)
        .metric("bytes_per_delivery", row.bytes_per_delivery)
        .metric("frames", row.frames)
        .metric("bytes_vs_single", row.bytes_per_delivery / single_bytes)
        .emit();
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "expected shape: v2_batch amortizes the 21-byte header and the length "
      "prefix over the whole batch and decodes through the streaming "
      "reader, so it should win both axes — that per-delivery delta times "
      "remote traffic is exactly the wire overhead bench_transport "
      "measures end to end at grain_ns=0.\n");
  return 0;
}
