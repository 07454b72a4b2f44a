#include "sim/report.hpp"

#include <iomanip>
#include <set>

namespace llamcat {

namespace {

constexpr const char* kDerivedHeader =
    "name,cycles,seconds,l2_hit_rate,mshr_hit_rate,mshr_entry_util,"
    "dram_bw_gbps,t_cs,ipc,instructions,thread_blocks,dram_reads,dram_writes";

void write_derived_row(std::ostream& os, const ExperimentResult& r) {
  constexpr char sep = ',';
  const SimStats& s = r.stats;
  os << r.name << sep << s.cycles << sep << s.seconds() << sep
     << s.l2_hit_rate << sep << s.mshr_hit_rate << sep << s.mshr_entry_util
     << sep << s.dram_bw_gbps << sep << s.t_cs << sep << s.ipc << sep
     << s.instructions << sep << s.thread_blocks << sep << s.dram_reads << sep
     << s.dram_writes;
}

/// Minimal JSON string escaping (names are ASCII identifiers, but a
/// workload name could contain quotes or backslashes).
std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char ch : in) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch;
    }
  }
  return out;
}

void write_json_object(std::ostream& os, const std::string& name,
                       const SimStats& s, double wall_seconds) {
  os << "  {\n";
  os << "    \"name\": \"" << json_escape(name) << "\",\n";
  os << "    \"cycles\": " << s.cycles << ",\n";
  os << "    \"seconds\": " << s.seconds() << ",\n";
  if (wall_seconds >= 0.0) {
    os << "    \"wall_seconds\": " << wall_seconds << ",\n";
  }
  os << "    \"l2_hit_rate\": " << s.l2_hit_rate << ",\n";
  os << "    \"mshr_hit_rate\": " << s.mshr_hit_rate << ",\n";
  os << "    \"mshr_entry_util\": " << s.mshr_entry_util << ",\n";
  os << "    \"dram_bw_gbps\": " << s.dram_bw_gbps << ",\n";
  os << "    \"t_cs\": " << s.t_cs << ",\n";
  os << "    \"ipc\": " << s.ipc << ",\n";
  os << "    \"instructions\": " << s.instructions << ",\n";
  os << "    \"thread_blocks\": " << s.thread_blocks << ",\n";
  os << "    \"dram_reads\": " << s.dram_reads << ",\n";
  os << "    \"dram_writes\": " << s.dram_writes << ",\n";
  os << "    \"counters\": {";
  bool first = true;
  for (const auto& [k, v] : s.counters.counters()) {
    os << (first ? "\n" : ",\n") << "      \"" << json_escape(k)
       << "\": " << v;
    first = false;
  }
  os << "\n    }\n  }";
}

}  // namespace

void write_csv(std::ostream& os, std::span<const ExperimentResult> results) {
  const auto flags = os.flags();
  os << std::setprecision(10);

  os << kDerivedHeader;
  std::set<std::string> counter_keys;
  for (const auto& r : results) {
    for (const auto& [k, v] : r.stats.counters.counters()) {
      (void)v;
      counter_keys.insert(k);
    }
  }
  for (const auto& k : counter_keys) os << ',' << k;
  os << "\n";

  for (const auto& r : results) {
    write_derived_row(os, r);
    for (const auto& k : counter_keys) os << ',' << r.stats.counters.get(k);
    os << "\n";
  }
  os.flags(flags);
}

void write_json(std::ostream& os, std::span<const ExperimentResult> results) {
  const auto flags = os.flags();
  os << std::setprecision(10);
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    write_json_object(os, results[i].name, results[i].stats,
                      results[i].wall_seconds);
    os << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "]\n";
  os.flags(flags);
}

void write_json(std::ostream& os, const std::string& name,
                const SimStats& stats) {
  const auto flags = os.flags();
  os << std::setprecision(10);
  os << "[\n";
  write_json_object(os, name, stats, -1.0);
  os << "\n]\n";
  os.flags(flags);
}

}  // namespace llamcat
