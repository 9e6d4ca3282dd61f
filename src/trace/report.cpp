#include "trace/report.hpp"

#include <sstream>
#include <thread>

#include "support/table.hpp"

namespace df::trace {

std::string render_stats(const std::string& label,
                         const core::ExecStats& stats) {
  std::ostringstream out;
  out << label << ": " << stats.executed_pairs << " pairs, "
      << stats.messages_delivered << " messages, " << stats.sink_records
      << " sink records, " << stats.phases_completed << " phases in "
      << support::Table::num(stats.wall_seconds * 1e3, 2) << " ms ("
      << support::Table::num(stats.pairs_per_second(), 0) << " pairs/s)";
  const double total_ns =
      static_cast<double>(stats.compute_ns + stats.bookkeeping_ns);
  if (total_ns > 0.0) {
    out << "; compute/bookkeeping = "
        << support::Table::num(
               100.0 * static_cast<double>(stats.compute_ns) / total_ns, 1)
        << "%/"
        << support::Table::num(
               100.0 * static_cast<double>(stats.bookkeeping_ns) / total_ns,
               1)
        << "%";
  }
  if (stats.max_inflight_phases > 1) {
    out << "; max in-flight phases " << stats.max_inflight_phases;
  }
  return out.str();
}

std::string machine_summary() {
  std::ostringstream out;
  out << "machine: hw_concurrency=" << std::thread::hardware_concurrency();
#ifdef NDEBUG
  out << ", build=release";
#else
  out << ", build=debug(assertions on)";
#endif
  return out.str();
}

}  // namespace df::trace
